package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"delprop/internal/relation"
	"delprop/internal/view"
)

// ErrNotPivotForest is returned when the instance lacks the structure
// Algorithm 4 needs: per connected component of the data dual graph, a
// pivot tuple from which every view tuple is a path (Section IV.E).
var ErrNotPivotForest = errors.New("core: instance is not a pivot forest")

// pivotNode is one base tuple in the data dual forest.
type pivotNode struct {
	id       relation.TupleID
	parent   *pivotNode
	children []*pivotNode
	// preservedWeight is the total weight of preserved view tuples whose
	// join path ends at this node.
	preservedWeight float64
	// deltaEndpoints counts requested view tuples ending here.
	deltaEndpoints int
	// hasDelta marks components worth solving.
	hasDelta bool
}

// PivotForest is the data dual forest of Section IV.E: base tuples as
// nodes, each view tuple a root-to-node path in some tree.
type PivotForest struct {
	roots []*pivotNode
	byKey map[string]*pivotNode
}

// Roots returns the pivot tuples, one per component.
func (f *PivotForest) Roots() []relation.TupleID {
	out := make([]relation.TupleID, len(f.roots))
	for i, r := range f.roots {
		out[i] = r.id
	}
	return out
}

// Size returns the number of nodes (base tuples appearing in views).
func (f *PivotForest) Size() int { return len(f.byKey) }

// refPath holds one view tuple's ordered join path.
type refPath struct {
	ref  view.TupleRef
	path []relation.TupleID // pivot first
}

// rawRef is one view tuple with its (unique) derivation tuple set.
type rawRef struct {
	ref    view.TupleRef
	tuples map[string]relation.TupleID
}

// BuildPivotForest detects the pivot-forest structure, or returns
// ErrNotPivotForest. The detection is data-driven, following the
// definition of Section IV.E directly: within each connected component of
// the data dual graph, a tuple's ancestors must be exactly the tuples
// present in every derivation that contains it (all view tuples are root
// paths, so everything above a tuple co-occurs with it). Each derivation
// is therefore laid out by ascending ancestor-set size and merged into a
// tuple tree, rejecting the instance as soon as a tuple would need two
// parents or the containment order breaks.
func BuildPivotForest(p *Problem) (*PivotForest, error) {
	if err := requireKeyPreserving(p, "dp-tree"); err != nil {
		return nil, err
	}
	var refs []rawRef
	for _, v := range p.Views {
		for _, ans := range v.Result.Answers() {
			if len(ans.Derivations) != 1 {
				return nil, fmt.Errorf("%w: view tuple with %d derivations", ErrNotPivotForest, len(ans.Derivations))
			}
			refs = append(refs, rawRef{
				ref:    view.TupleRef{View: v.Index, Tuple: ans.Tuple},
				tuples: ans.Derivations[0].TupleSet(),
			})
		}
	}
	// Union-find over tuple keys to find components.
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	add := func(x string) {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
	}
	for _, r := range refs {
		var first string
		for k := range r.tuples {
			add(k)
			if first == "" {
				//lint:ignore mapdet any path tuple anchors the unions; the resulting partition is the same
				first = k
			} else {
				parent[find(k)] = find(first)
			}
		}
	}
	// Group refs by component root.
	comps := make(map[string][]int)
	var compOrder []string
	for i, r := range refs {
		var root string
		for k := range r.tuples {
			//lint:ignore mapdet every tuple of the path lies in one component, so any k finds the same root
			root = find(k)
			break
		}
		if root == "" {
			return nil, fmt.Errorf("%w: view tuple with empty derivation", ErrNotPivotForest)
		}
		if _, ok := comps[root]; !ok {
			compOrder = append(compOrder, root)
		}
		comps[root] = append(comps[root], i)
	}
	// The union-find representative is an arbitrary member (union order
	// follows map iteration), so sorting by it would order components
	// differently run to run. Sort by each component's minimum tuple key —
	// canonical whatever the union order — so the forest layout, and with
	// it the solution's deletion order, is identical across runs.
	canon := make(map[string]string)
	for _, r := range refs {
		for k := range r.tuples {
			root := find(k)
			if c, ok := canon[root]; !ok || k < c {
				canon[root] = k
			}
		}
	}
	sort.Slice(compOrder, func(a, b int) bool { return canon[compOrder[a]] < canon[compOrder[b]] })

	forest := &PivotForest{byKey: make(map[string]*pivotNode)}
	for _, root := range compOrder {
		idxs := comps[root]
		built, err := layoutComponent(refs, idxs)
		if err != nil {
			return nil, err
		}
		rootNode, err := mergePaths(forest.byKey, built)
		if err != nil {
			return nil, err
		}
		// Attach endpoint costs.
		for _, rp := range built {
			end := forest.byKey[rp.path[len(rp.path)-1].Key()]
			if p.Delta.Contains(rp.ref) {
				end.deltaEndpoints++
			} else {
				end.preservedWeight += p.Weight(rp.ref)
			}
		}
		// Mark whether this component matters.
		var mark func(n *pivotNode) bool
		mark = func(n *pivotNode) bool {
			has := n.deltaEndpoints > 0
			for _, c := range n.children {
				if mark(c) {
					has = true
				}
			}
			n.hasDelta = has
			return has
		}
		mark(rootNode)
		forest.roots = append(forest.roots, rootNode)
	}
	return forest, nil
}

// layoutComponent orders every derivation of the component as a root path
// using ancestor sets: anc(t) = ∩{derivations containing t}. In a pivot
// forest anc(t) is exactly the path from the pivot to t, so sorting each
// derivation by |anc| (ties broken by tuple key, which is safe because
// tuples with identical derivation membership have identical kill-sets)
// yields a consistent layout; the containment of each path element in the
// next one's ancestor set is verified.
func layoutComponent(refs []rawRef, idxs []int) ([]refPath, error) {
	// derivsOf[t] = indexes (into idxs) of derivations containing t.
	derivsOf := make(map[string][]int)
	ids := make(map[string]relation.TupleID)
	for pos, i := range idxs {
		for k, id := range refs[i].tuples {
			derivsOf[k] = append(derivsOf[k], pos)
			ids[k] = id
		}
	}
	// ancSize[t] = |∩ derivations containing t|, computed by counting how
	// many tuples occur in every derivation of derivsOf[t].
	ancOf := make(map[string]map[string]bool, len(derivsOf))
	for k, ds := range derivsOf {
		anc := make(map[string]bool)
		first := refs[idxs[ds[0]]].tuples
		for cand := range first {
			inAll := true
			for _, pos := range ds[1:] {
				if _, ok := refs[idxs[pos]].tuples[cand]; !ok {
					inAll = false
					break
				}
			}
			if inAll {
				anc[cand] = true
			}
		}
		ancOf[k] = anc
	}
	var out []refPath
	for _, i := range idxs {
		r := refs[i]
		keys := make([]string, 0, len(r.tuples))
		for k := range r.tuples {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			sa, sb := len(ancOf[keys[a]]), len(ancOf[keys[b]])
			if sa != sb {
				return sa < sb
			}
			return keys[a] < keys[b]
		})
		// Verify the root-path property: every element lies in the
		// ancestor set of its successor.
		for j := 0; j+1 < len(keys); j++ {
			if !ancOf[keys[j+1]][keys[j]] {
				return nil, fmt.Errorf("%w: tuples %s and %s are not ancestor-ordered", ErrNotPivotForest, ids[keys[j]], ids[keys[j+1]])
			}
		}
		path := make([]relation.TupleID, len(keys))
		for j, k := range keys {
			path[j] = ids[k]
		}
		out = append(out, refPath{ref: r.ref, path: path})
	}
	return out, nil
}

// mergePaths merges root paths into a tree, requiring a unique parent per
// tuple and a common root.
func mergePaths(byKey map[string]*pivotNode, paths []refPath) (*pivotNode, error) {
	getNode := func(id relation.TupleID) *pivotNode {
		k := id.Key()
		if n, ok := byKey[k]; ok {
			return n
		}
		n := &pivotNode{id: id}
		byKey[k] = n
		return n
	}
	var root *pivotNode
	for _, rp := range paths {
		prev := getNode(rp.path[0])
		if root == nil {
			root = prev
		}
		if prev != root {
			return nil, fmt.Errorf("%w: component has no common pivot tuple (paths start at %s and %s)", ErrNotPivotForest, root.id, prev.id)
		}
		for _, id := range rp.path[1:] {
			n := getNode(id)
			if n.parent == nil && n != root {
				n.parent = prev
				prev.children = append(prev.children, n)
			} else if n.parent != prev {
				return nil, fmt.Errorf("%w: tuple %s has two parents", ErrNotPivotForest, id)
			}
			prev = n
		}
	}
	if root.parent != nil {
		return nil, fmt.Errorf("%w: pivot has a parent", ErrNotPivotForest)
	}
	return root, nil
}

// DPTree implements Algorithm 4 (DPTreeVSE): exact polynomial dynamic
// programming over the pivot forest. For every node, either delete it
// (killing every view tuple whose path enters its subtree, at the cost of
// the preserved weight inside) or keep it and recurse — with the standard
// objective a kept node must not host a requested endpoint; with the
// balanced objective it may, paying 1 per surviving requested tuple.
type DPTree struct {
	// Balanced switches to the balanced objective (Section III).
	Balanced bool
}

// Name implements Solver.
func (d *DPTree) Name() string {
	if d.Balanced {
		return "dp-tree-balanced"
	}
	return "dp-tree"
}

// Solve implements Solver. Returns ErrNotPivotForest when the structure is
// absent. The DP is polynomial; the checkpoint granularity is one tree per
// poll (forest detection dominates the cost anyway).
func (d *DPTree) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, d.Name(), nil); err != nil {
		return nil, err
	}
	forest, err := BuildPivotForest(p)
	if err != nil {
		return nil, err
	}
	// The DP visits every forest node exactly once.
	st.AddNodes(int64(forest.Size()))
	sol := &Solution{}
	for _, root := range forest.roots {
		st.Checkpoint()
		if err := checkCtx(ctx, d.Name(), nil); err != nil {
			return nil, err
		}
		if !root.hasDelta {
			continue
		}
		d.solveTree(root, sol)
	}
	return sol, nil
}

// subtreeWeight computes the preserved endpoint weight of the subtree.
func subtreeWeight(n *pivotNode) float64 {
	w := n.preservedWeight
	for _, c := range n.children {
		w += subtreeWeight(c)
	}
	return w
}

// solveTree runs the DP and appends the chosen deletions.
func (d *DPTree) solveTree(root *pivotNode, sol *Solution) {
	type result struct {
		cost   float64
		delete bool
	}
	memo := make(map[*pivotNode]result)
	var f func(n *pivotNode) float64
	f = func(n *pivotNode) float64 {
		if r, ok := memo[n]; ok {
			return r.cost
		}
		deleteCost := subtreeWeight(n)
		keepCost := 0.0
		if n.deltaEndpoints > 0 {
			if d.Balanced {
				keepCost += float64(n.deltaEndpoints)
			} else {
				keepCost = math.Inf(1)
			}
		}
		if !math.IsInf(keepCost, 1) {
			for _, c := range n.children {
				keepCost += f(c)
			}
		}
		r := result{cost: keepCost, delete: false}
		if deleteCost < keepCost || math.IsInf(keepCost, 1) {
			r = result{cost: deleteCost, delete: true}
		}
		memo[n] = r
		return r.cost
	}
	f(root)
	var collect func(n *pivotNode)
	collect = func(n *pivotNode) {
		if memo[n].delete {
			sol.Deleted = append(sol.Deleted, n.id)
			return
		}
		for _, c := range n.children {
			collect(c)
		}
	}
	collect(root)
}

// IsPivotForest reports whether Algorithm 4 applies to the problem.
func IsPivotForest(p *Problem) bool {
	_, err := BuildPivotForest(p)
	return err == nil
}
