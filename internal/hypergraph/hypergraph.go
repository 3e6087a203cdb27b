// Package hypergraph implements the hypergraph machinery of Sections IV.B
// and IV.E of the paper: hypergraphs over named vertices, connected
// components, the GYO α-acyclicity test, join-tree construction via Maier's
// maximal-spanning-tree characterization, hypergraph duals, and the
// "hypertree" test used to characterize the forest cases (a hypergraph is a
// hypertree iff it admits a host tree on its vertices in which every
// hyperedge induces a subtree; equivalently, iff its dual is α-acyclic).
package hypergraph

import (
	"sort"
	"strings"
)

// Edge is a named hyperedge: a set of vertex names.
type Edge struct {
	Name     string
	Vertices map[string]bool
}

// NewEdge builds an edge over the given vertices (duplicates collapse).
func NewEdge(name string, vertices ...string) Edge {
	e := Edge{Name: name, Vertices: make(map[string]bool, len(vertices))}
	for _, v := range vertices {
		e.Vertices[v] = true
	}
	return e
}

// Contains reports whether v is in the edge.
func (e Edge) Contains(v string) bool { return e.Vertices[v] }

// SortedVertices returns the vertices in lexicographic order.
func (e Edge) SortedVertices() []string {
	out := make([]string, 0, len(e.Vertices))
	for v := range e.Vertices {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// String renders the edge as name{a,b,c}.
func (e Edge) String() string {
	return e.Name + "{" + strings.Join(e.SortedVertices(), ",") + "}"
}

// Hypergraph is a finite hypergraph with named vertices and named edges.
// The paper's dual hypergraph H(Q) has relations as vertices and one edge
// per query (Section IV.B).
type Hypergraph struct {
	vertexOrder []string
	vertices    map[string]bool
	Edges       []Edge
}

// New creates an empty hypergraph.
func New() *Hypergraph {
	return &Hypergraph{vertices: make(map[string]bool)}
}

// AddVertex registers a vertex (idempotent).
func (h *Hypergraph) AddVertex(v string) {
	if !h.vertices[v] {
		h.vertices[v] = true
		h.vertexOrder = append(h.vertexOrder, v)
	}
}

// AddEdge adds a hyperedge, registering its vertices.
func (h *Hypergraph) AddEdge(e Edge) {
	for _, v := range e.SortedVertices() {
		h.AddVertex(v)
	}
	h.Edges = append(h.Edges, e)
}

// Vertices returns vertex names in insertion order.
func (h *Hypergraph) Vertices() []string {
	return append([]string(nil), h.vertexOrder...)
}

// String renders the hypergraph deterministically.
func (h *Hypergraph) String() string {
	parts := make([]string, len(h.Edges))
	for i, e := range h.Edges {
		parts[i] = e.String()
	}
	return "H[" + strings.Join(parts, "; ") + "]"
}

// ConnectedComponents partitions the edges into components: two edges are
// connected if they share a vertex. Each component is returned as a
// sub-hypergraph; isolated vertices (in no edge) are dropped.
func (h *Hypergraph) ConnectedComponents() []*Hypergraph {
	n := len(h.Edges)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	byVertex := make(map[string]int)
	for i, e := range h.Edges {
		for v := range e.Vertices {
			if j, ok := byVertex[v]; ok {
				union(i, j)
			} else {
				byVertex[v] = i
			}
		}
	}
	groups := make(map[int][]int)
	var roots []int
	for i := range h.Edges {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	sort.Ints(roots)
	out := make([]*Hypergraph, 0, len(roots))
	for _, r := range roots {
		sub := New()
		for _, i := range groups[r] {
			sub.AddEdge(h.Edges[i])
		}
		out = append(out, sub)
	}
	return out
}

// GYOAcyclic runs the GYO reduction and reports whether the hypergraph is
// α-acyclic: repeatedly delete vertices occurring in exactly one edge
// ("ears") and edges contained in another edge, until fixpoint; acyclic iff
// everything is eliminated.
func (h *Hypergraph) GYOAcyclic() bool {
	// Work on copies.
	edges := make([]map[string]bool, 0, len(h.Edges))
	for _, e := range h.Edges {
		m := make(map[string]bool, len(e.Vertices))
		for v := range e.Vertices {
			m[v] = true
		}
		edges = append(edges, m)
	}
	alive := make([]bool, len(edges))
	for i := range alive {
		alive[i] = true
	}
	for {
		changed := false
		// Count vertex occurrences among alive edges.
		occ := make(map[string]int)
		for i, e := range edges {
			if !alive[i] {
				continue
			}
			for v := range e {
				occ[v]++
			}
		}
		// Remove ear vertices.
		for i, e := range edges {
			if !alive[i] {
				continue
			}
			for v := range e {
				if occ[v] == 1 {
					delete(e, v)
					changed = true
				}
			}
		}
		// Remove empty edges and edges contained in another alive edge.
		for i := range edges {
			if !alive[i] {
				continue
			}
			if len(edges[i]) == 0 {
				alive[i] = false
				changed = true
				continue
			}
			for j := range edges {
				if i == j || !alive[j] {
					continue
				}
				if subset(edges[i], edges[j]) {
					// Break ties on equal edges: only remove the
					// higher-indexed one to avoid removing both.
					if len(edges[i]) == len(edges[j]) && i < j {
						continue
					}
					alive[i] = false
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := range alive {
		if alive[i] {
			return false
		}
	}
	return true
}

func subset(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// JoinTree is a tree over the hyperedges of a hypergraph satisfying the
// running-intersection property: for every vertex, the edges containing it
// form a connected subtree.
type JoinTree struct {
	// Nodes are indexes into the hypergraph's Edges slice.
	Nodes []int
	// Adj is the adjacency list over node positions (indexes into Nodes).
	Adj [][]int
}

// JoinTree computes a join tree via Maier's characterization: the
// hypergraph is α-acyclic iff a maximum-weight spanning tree of the edge
// intersection graph (weight = |e_i ∩ e_j|) is a join tree. Returns nil if
// the hypergraph is not α-acyclic or has no edges.
func (h *Hypergraph) JoinTree() *JoinTree {
	m := len(h.Edges)
	if m == 0 {
		return nil
	}
	// Maximum spanning forest by Prim per component of the intersection
	// graph; then a join tree exists only if the hypergraph is connected as
	// one component here (callers split components first). For
	// disconnected hypergraphs we still build a forest and verify the
	// running-intersection property per tree.
	inTree := make([]bool, m)
	adj := make([][]int, m)
	for start := 0; start < m; start++ {
		if inTree[start] {
			continue
		}
		inTree[start] = true
		for {
			// Find the best edge from tree to non-tree within reach.
			bi, bw, bp := -1, -1, -1
			for i := 0; i < m; i++ {
				if inTree[i] {
					continue
				}
				for j := 0; j < m; j++ {
					if !inTree[j] {
						continue
					}
					w := intersectionSize(h.Edges[i], h.Edges[j])
					if w > bw {
						bw, bi, bp = w, i, j
					}
				}
			}
			if bi == -1 || bw == 0 {
				break
			}
			inTree[bi] = true
			adj[bi] = append(adj[bi], bp)
			adj[bp] = append(adj[bp], bi)
		}
	}
	jt := &JoinTree{Adj: adj}
	for i := 0; i < m; i++ {
		jt.Nodes = append(jt.Nodes, i)
	}
	if !h.verifyJoinTree(jt) {
		return nil
	}
	return jt
}

func intersectionSize(a, b Edge) int {
	n := 0
	small, large := a.Vertices, b.Vertices
	if len(small) > len(large) {
		small, large = large, small
	}
	for v := range small {
		if large[v] {
			n++
		}
	}
	return n
}

// verifyJoinTree checks the running-intersection property.
func (h *Hypergraph) verifyJoinTree(jt *JoinTree) bool {
	m := len(h.Edges)
	for _, v := range h.Vertices() {
		// Edges containing v must form a connected subgraph of the tree.
		has := make([]bool, m)
		cnt := 0
		first := -1
		for i, e := range h.Edges {
			if e.Contains(v) {
				has[i] = true
				cnt++
				if first == -1 {
					first = i
				}
			}
		}
		if cnt <= 1 {
			continue
		}
		// BFS from first through nodes with v.
		seen := make([]bool, m)
		queue := []int{first}
		seen[first] = true
		reach := 1
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range jt.Adj[x] {
				if !seen[y] && has[y] {
					seen[y] = true
					reach++
					queue = append(queue, y)
				}
			}
		}
		if reach != cnt {
			return false
		}
	}
	return true
}

// Dual returns the dual hypergraph: one vertex per edge of h (named by the
// edge name) and one edge per vertex v of h, containing the names of the
// edges that contain v.
func (h *Hypergraph) Dual() *Hypergraph {
	d := New()
	for _, e := range h.Edges {
		d.AddVertex(e.Name)
	}
	for _, v := range h.Vertices() {
		de := Edge{Name: "v:" + v, Vertices: make(map[string]bool)}
		for _, e := range h.Edges {
			if e.Contains(v) {
				de.Vertices[e.Name] = true
			}
		}
		if len(de.Vertices) > 0 {
			d.AddEdge(de)
		}
	}
	return d
}

// IsHypertree reports whether the hypergraph admits a host tree on its
// vertices such that every hyperedge induces a subtree — the "hypertree"
// notion of Fig. 3. By Fagin's duality this holds iff the dual hypergraph
// is α-acyclic.
func (h *Hypergraph) IsHypertree() bool {
	if len(h.Edges) == 0 {
		return true
	}
	return h.Dual().GYOAcyclic()
}

// IsForest reports whether every connected component is a hypertree — the
// paper's "forest case" precondition for the Section V.C/V.D algorithms.
func (h *Hypergraph) IsForest() bool {
	for _, c := range h.ConnectedComponents() {
		if !c.IsHypertree() {
			return false
		}
	}
	return true
}
