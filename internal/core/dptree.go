package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"delprop/internal/view"
)

// ErrNotPivotForest is returned when the instance lacks the structure
// Algorithm 4 needs: per connected component of the data dual graph, a
// pivot tuple from which every view tuple is a path (Section IV.E).
var ErrNotPivotForest = errors.New("core: instance is not a pivot forest")

// pivotForest is the data dual forest of Section IV.E: base tuples as
// nodes, each view tuple a root-to-node path in some tree. It depends on
// (D, Q) only; the request enters in DPTree's pass over it. Nodes are
// tuple ids, and both per-node lists are windows of one array each, so
// the forest is immutable once built: every request on the skeleton
// reads the same arrays.
type pivotForest struct {
	roots []int32 // one per component, by minimum tuple id
	size  int     // number of nodes (base tuples appearing in views)
	// child[childStart[t]:childStart[t+1]] are tuple t's children, in
	// the order merge found them.
	childStart, child []int32
	// end[endStart[t]:endStart[t+1]] are the ref ids of the view tuples
	// whose join path ends at tuple t, in layout order.
	endStart, end []int32
}

// children returns tuple t's children.
func (f *pivotForest) children(t int32) []int32 {
	return f.child[f.childStart[t]:f.childStart[t+1]]
}

// ends returns the ref ids of the view tuples whose path ends at t.
func (f *pivotForest) ends(t int32) []int32 {
	return f.end[f.endStart[t]:f.endStart[t+1]]
}

// pivotForest returns the skeleton's forest, built on first use and
// shared by every Specialize derivative; a negative verdict is memoized
// too.
func (p *Problem) pivotForest() (*pivotForest, error) {
	return p.skel.pivot.get(func() (*pivotForest, error) { return buildPivotForest(p) })
}

// buildPivotForest detects the pivot-forest structure, or returns
// ErrNotPivotForest. The detection is data-driven, following the
// definition of Section IV.E directly: within each connected component of
// the data dual graph, a tuple's ancestors must be exactly the tuples
// present in every derivation that contains it (all view tuples are root
// paths, so everything above a tuple co-occurs with it). Each derivation
// is therefore laid out by ascending ancestor-set size and merged into a
// tuple tree, rejecting the instance as soon as a tuple would need two
// parents or the containment order breaks.
func buildPivotForest(p *Problem) (*pivotForest, error) {
	if err := requireKeyPreserving(p, "dp-tree"); err != nil {
		return nil, err
	}
	// Tuples and view tuples are the provenance index's dense ids: paths
	// is indexed by ref id, and a view tuple's path starts as its
	// derivation's distinct tuple ids, ascending. Every per-ref and
	// per-tuple list below is a window of one array sized from the
	// index's counts.
	x := p.Index()
	n := x.NumTuples()
	pathLen := make([]int, x.NumRefs())
	for r := range pathLen {
		lo, hi := x.Derivations(int32(r))
		if hi-lo != 1 {
			return nil, fmt.Errorf("%w: view tuple with %d derivations", ErrNotPivotForest, hi-lo)
		}
		if pathLen[r] = len(x.DerivTuples(lo)); pathLen[r] == 0 {
			return nil, fmt.Errorf("%w: view tuple with empty derivation", ErrNotPivotForest)
		}
	}
	paths := windows[int](pathLen)
	for r := range paths {
		lo, _ := x.Derivations(int32(r))
		for _, t := range x.DerivTuples(lo) {
			paths[r] = append(paths[r], int(t))
		}
	}
	// Union-find over tuple ids finds the components.
	uf := make([]int, n)
	for t := range uf {
		uf[t] = t
	}
	var find func(int) int
	find = func(x int) int {
		if uf[x] != x {
			uf[x] = find(uf[x])
		}
		return uf[x]
	}
	for _, path := range paths {
		for _, t := range path[1:] {
			uf[find(t)] = find(path[0])
		}
	}
	// Group view tuples by component. Order components by their minimum
	// tuple id, not by the union-find representative: ids are in key
	// order, so the forest layout, and with it the solution's deletion
	// order, is canonical.
	minT := make([]int, n)
	nRoots := 0
	for t := n - 1; t >= 0; t-- {
		minT[find(t)] = t
		if uf[t] == t {
			nRoots++
		}
	}
	compSize := make([]int, n)
	roots := make([]int, 0, nRoots)
	for _, path := range paths {
		r := find(path[0])
		if compSize[r] == 0 {
			roots = append(roots, r)
		}
		compSize[r]++
	}
	comps := windows[int](compSize)
	for i, path := range paths {
		r := find(path[0])
		comps[r] = append(comps[r], i)
	}
	slices.SortFunc(roots, func(a, b int) int { return cmp.Compare(minT[a], minT[b]) })

	// anc[t] = ∩{paths containing t}. In a pivot forest this is exactly
	// the path from the pivot to t, so sorting each path by |anc| (ties
	// broken by tuple id, which is safe because tuples with identical
	// path membership have identical kill-sets) yields the layout.
	// anc[t] is a subset of the first path containing t, which bounds
	// its window.
	occurs := make([]int, n)
	for _, path := range paths {
		for _, t := range path {
			occurs[t]++
		}
	}
	containing := windows[int](occurs)
	for i, path := range paths {
		for _, t := range path {
			containing[t] = append(containing[t], i)
		}
	}
	ancCap := make([]int, n)
	for t, in := range containing {
		ancCap[t] = len(paths[in[0]])
	}
	anc := windows[int](ancCap)
	for t, in := range containing {
		for _, cand := range paths[in[0]] {
			// cand is an ancestor unless some path through t lacks it.
			if !slices.ContainsFunc(in[1:], func(i int) bool { return !slices.Contains(paths[i], cand) }) {
				anc[t] = append(anc[t], cand)
			}
		}
	}

	b := &forestBuilder{x: x, up: make([]int32, n), born: make([]int32, 0, n)}
	for t := range b.up {
		b.up[t] = -1
	}
	forest := &pivotForest{size: n, roots: make([]int32, 0, len(roots))}
	for _, r := range roots {
		idxs := comps[r]
		for _, i := range idxs {
			if err := layoutPath(x, paths[i], anc); err != nil {
				return nil, err
			}
		}
		root, err := b.merge(paths, idxs)
		if err != nil {
			return nil, err
		}
		forest.roots = append(forest.roots, root)
	}
	// Link the trees: children in the order merge found them, path ends
	// in component then ref order.
	forest.childStart, forest.endStart = make([]int32, n+1), make([]int32, n+1)
	for _, t := range b.born {
		forest.childStart[b.up[t]+1]++
	}
	for _, path := range paths {
		forest.endStart[path[len(path)-1]+1]++
	}
	for t := range n {
		forest.childStart[t+1] += forest.childStart[t]
		forest.endStart[t+1] += forest.endStart[t]
	}
	forest.child, forest.end = make([]int32, len(b.born)), make([]int32, len(paths))
	next := slices.Clone(forest.childStart[:n])
	for _, t := range b.born {
		parent := b.up[t]
		forest.child[next[parent]] = t
		next[parent]++
	}
	copy(next, forest.endStart[:n])
	for _, r := range roots {
		for _, i := range comps[r] {
			end := paths[i][len(paths[i])-1]
			forest.end[next[end]] = int32(i)
			next[end]++
		}
	}
	return forest, nil
}

// windows returns one empty slice per size, with that capacity, all
// carved from one array.
func windows[T any](sizes []int) [][]T {
	total := 0
	for _, c := range sizes {
		total += c
	}
	buf := make([]T, total)
	out := make([][]T, len(sizes))
	for i, c := range sizes {
		out[i], buf = buf[:0:c], buf[c:]
	}
	return out
}

// layoutPath sorts a path, in place, by ascending ancestor-set size and
// verifies the root-path property: every element lies in the ancestor
// set of its successor.
func layoutPath(x *view.Index, path []int, anc [][]int) error {
	slices.SortFunc(path, func(a, b int) int {
		if c := cmp.Compare(len(anc[a]), len(anc[b])); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for j := 0; j+1 < len(path); j++ {
		if !slices.Contains(anc[path[j+1]], path[j]) {
			return fmt.Errorf("%w: tuples %s and %s are not ancestor-ordered", ErrNotPivotForest, x.Tuple(int32(path[j])), x.Tuple(int32(path[j+1])))
		}
	}
	return nil
}

// forestBuilder merges laid-out paths into trees. up, indexed by tuple
// id, holds each tuple's parent, or -1; born lists the tuples given a
// parent, in the order merge gave it.
type forestBuilder struct {
	x    *view.Index
	up   []int32
	born []int32
}

// merge merges one component's paths into a tree, requiring a unique
// parent per tuple and a common root, and returns the root.
func (b *forestBuilder) merge(paths [][]int, idxs []int) (int32, error) {
	rootT := paths[idxs[0]][0]
	for _, i := range idxs {
		if t := paths[i][0]; t != rootT {
			return 0, fmt.Errorf("%w: component has no common pivot tuple (paths start at %s and %s)", ErrNotPivotForest, b.x.Tuple(int32(rootT)), b.x.Tuple(int32(t)))
		}
		prev := int32(rootT)
		for _, t := range paths[i][1:] {
			if b.up[t] < 0 && t != rootT {
				b.up[t] = prev
				b.born = append(b.born, int32(t))
			} else if b.up[t] != prev {
				return 0, fmt.Errorf("%w: tuple %s has two parents", ErrNotPivotForest, b.x.Tuple(int32(t)))
			}
			prev = int32(t)
		}
	}
	return int32(rootT), nil
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
// poll.
func (d *DPTree) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, d.Name(), nil); err != nil {
		return nil, err
	}
	forest, err := p.pivotForest()
	if err != nil {
		return nil, err
	}
	// The DP visits every forest node exactly once.
	st.AddNodes(int64(forest.size))
	rq := &p.rq
	sol := &Solution{}
	for _, root := range forest.roots {
		st.Checkpoint()
		if err := checkCtx(ctx, d.Name(), nil); err != nil {
			return nil, err
		}
		// A tree with no requested endpoint is left alone.
		start := len(sol.Deleted)
		if _, _, requested := d.solveTree(rq, forest, root, sol); !requested {
			sol.Deleted = sol.Deleted[:start]
		}
	}
	return sol, nil
}

// solveTree runs the DP over tuple t's subtree in one post-order pass.
// It returns the subtree's preserved weight (the cost of deleting t), its
// optimal cost, and whether a requested view tuple ends inside it. The
// chosen deletions are appended to sol in pre-order: a deleted node
// replaces whatever its descendants appended.
func (d *DPTree) solveTree(rq *requestRefs, f *pivotForest, t int32, sol *Solution) (weight, cost float64, requested bool) {
	endpoints := 0
	for _, r := range f.ends(t) {
		if rq.requested(r) {
			endpoints++
		} else {
			weight += rq.weight(r)
		}
	}
	keepCost := 0.0
	if endpoints > 0 {
		requested = true
		if d.Balanced {
			keepCost = float64(endpoints)
		} else {
			keepCost = math.Inf(1)
		}
	}
	start := len(sol.Deleted)
	for _, child := range f.children(t) {
		w, c, r := d.solveTree(rq, f, child, sol)
		weight += w
		keepCost += c
		requested = requested || r
	}
	if weight < keepCost || math.IsInf(keepCost, 1) {
		sol.Deleted = append(sol.Deleted[:start], rq.x.Tuple(t))
		return weight, weight, requested
	}
	return weight, keepCost, requested
}

// IsPivotForest reports whether Algorithm 4 applies to the problem. It
// reads the skeleton's memoized verdict.
func IsPivotForest(p *Problem) bool {
	_, err := p.pivotForest()
	return err == nil
}
