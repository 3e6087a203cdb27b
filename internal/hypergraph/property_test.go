package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randHypergraph builds a hypergraph over up to 6 vertices from a seed.
func randHypergraph(seed int64, edges int) *Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	vs := []string{"a", "b", "c", "d", "e", "f"}
	h := New()
	for i := 0; i < edges; i++ {
		n := 1 + rng.Intn(3)
		perm := rng.Perm(len(vs))
		e := Edge{Name: string(rune('A' + i)), Vertices: map[string]bool{}}
		for _, j := range perm[:n] {
			e.Vertices[vs[j]] = true
		}
		h.AddEdge(e)
	}
	return h
}

// TestHypertreeMonotoneUnderEdgeDeletion: removing a hyperedge from a
// hypertree leaves a hypertree — the host tree still hosts every remaining
// edge.
func TestHypertreeMonotoneUnderEdgeDeletion(t *testing.T) {
	f := func(seed int64, nEdges uint8) bool {
		h := randHypergraph(seed, 1+int(nEdges%5))
		if !h.IsHypertree() {
			return true // property only about hypertrees
		}
		for skip := range h.Edges {
			sub := New()
			for i, e := range h.Edges {
				if i != skip {
					sub.AddEdge(e)
				}
			}
			if !sub.IsHypertree() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGYOMonotoneUnderEdgeAdditionOfSubset: adding an edge contained in an
// existing edge never breaks α-acyclicity.
func TestGYOMonotoneUnderSubEdgeAddition(t *testing.T) {
	f := func(seed int64, nEdges uint8) bool {
		h := randHypergraph(seed, 1+int(nEdges%5))
		if !h.GYOAcyclic() {
			return true
		}
		// Add a subset of the first edge.
		first := h.Edges[0]
		sub := Edge{Name: "sub", Vertices: map[string]bool{}}
		for v := range first.Vertices {
			sub.Vertices[v] = true
			break
		}
		h2 := New()
		for _, e := range h.Edges {
			h2.AddEdge(e)
		}
		h2.AddEdge(sub)
		return h2.GYOAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDualDualPreservesHypertree: the dual of the dual has the same
// α-acyclicity as the reduced original on our test family (spot-check of
// Fagin's duality).
func TestDualityRelation(t *testing.T) {
	// H is a hypertree iff dual(H) is α-acyclic — definitionally here —
	// and H is α-acyclic iff dual(H) is a hypertree.
	f := func(seed int64, nEdges uint8) bool {
		h := randHypergraph(seed, 1+int(nEdges%5))
		d := h.Dual()
		if h.GYOAcyclic() != d.IsHypertree() {
			return false
		}
		return h.IsHypertree() == d.GYOAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
