package hypergraph

import (
	"sort"
	"testing"
)

// fig3 builds the paper's five queries as hyperedges over relations T1..T4:
//
//	Q1 :- T1,T2,T3   Q2 :- T1,T2,T4   Q3 :- T1,T2   Q4 :- T1,T3   Q5 :- T2,T3
func fig3Edge(name string) Edge {
	switch name {
	case "Q1":
		return NewEdge("Q1", "T1", "T2", "T3")
	case "Q2":
		return NewEdge("Q2", "T1", "T2", "T4")
	case "Q3":
		return NewEdge("Q3", "T1", "T2")
	case "Q4":
		return NewEdge("Q4", "T1", "T3")
	case "Q5":
		return NewEdge("Q5", "T2", "T3")
	}
	panic("unknown " + name)
}

func fig3(names ...string) *Hypergraph {
	h := New()
	for _, n := range names {
		h.AddEdge(fig3Edge(n))
	}
	return h
}

func TestEdgeBasics(t *testing.T) {
	e := NewEdge("e", "b", "a", "b")
	if len(e.Vertices) != 2 {
		t.Errorf("Vertices = %v", e.Vertices)
	}
	if !e.Contains("a") || e.Contains("c") {
		t.Error("Contains wrong")
	}
	if e.String() != "e{a,b}" {
		t.Errorf("String = %q", e.String())
	}
}

func TestHypergraphBasics(t *testing.T) {
	h := fig3("Q1", "Q2")
	if len(h.Edges) != 2 || len(h.Vertices()) != 4 {
		t.Errorf("edges=%d vertices=%d", len(h.Edges), len(h.Vertices()))
	}
	vs := h.Vertices()
	sort.Strings(vs)
	if len(vs) != 4 || vs[0] != "T1" || vs[3] != "T4" {
		t.Errorf("Vertices = %v", vs)
	}
}

func TestConnectedComponents(t *testing.T) {
	h := New()
	h.AddEdge(NewEdge("a", "1", "2"))
	h.AddEdge(NewEdge("b", "2", "3"))
	h.AddEdge(NewEdge("c", "9", "10"))
	cs := h.ConnectedComponents()
	if len(cs) != 2 {
		t.Fatalf("components = %d", len(cs))
	}
	sizes := []int{len(cs[0].Edges), len(cs[1].Edges)}
	sort.Ints(sizes)
	if sizes[0] != 1 || sizes[1] != 2 {
		t.Errorf("component sizes = %v", sizes)
	}
	// Single component.
	if got := fig3("Q1", "Q2").ConnectedComponents(); len(got) != 1 {
		t.Errorf("fig3 components = %d", len(got))
	}
}

func TestGYOAcyclic(t *testing.T) {
	cases := []struct {
		name    string
		edges   []Edge
		acyclic bool
	}{
		{"empty", nil, true},
		{"single", []Edge{NewEdge("e", "a", "b")}, true},
		{"path", []Edge{NewEdge("e1", "a", "b"), NewEdge("e2", "b", "c")}, true},
		{"triangle", []Edge{NewEdge("e1", "a", "b"), NewEdge("e2", "b", "c"), NewEdge("e3", "a", "c")}, false},
		{"triangle+cover", []Edge{NewEdge("e0", "a", "b", "c"), NewEdge("e1", "a", "b"), NewEdge("e2", "b", "c"), NewEdge("e3", "a", "c")}, true},
		{"star", []Edge{NewEdge("e1", "c", "a"), NewEdge("e2", "c", "b"), NewEdge("e3", "c", "d")}, true},
		{"cycle4", []Edge{NewEdge("e1", "a", "b"), NewEdge("e2", "b", "c"), NewEdge("e3", "c", "d"), NewEdge("e4", "d", "a")}, false},
		{"duplicate edges", []Edge{NewEdge("e1", "a", "b"), NewEdge("e2", "a", "b")}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := New()
			for _, e := range c.edges {
				h.AddEdge(e)
			}
			if got := h.GYOAcyclic(); got != c.acyclic {
				t.Errorf("GYOAcyclic = %v, want %v", got, c.acyclic)
			}
		})
	}
}

func TestJoinTreeAgreesWithGYO(t *testing.T) {
	// On every connected case above, JoinTree != nil iff GYOAcyclic.
	suites := [][]Edge{
		{NewEdge("e", "a", "b")},
		{NewEdge("e1", "a", "b"), NewEdge("e2", "b", "c")},
		{NewEdge("e1", "a", "b"), NewEdge("e2", "b", "c"), NewEdge("e3", "a", "c")},
		{NewEdge("e0", "a", "b", "c"), NewEdge("e1", "a", "b"), NewEdge("e2", "b", "c"), NewEdge("e3", "a", "c")},
		{NewEdge("e1", "c", "a"), NewEdge("e2", "c", "b"), NewEdge("e3", "c", "d")},
		{NewEdge("e1", "a", "b"), NewEdge("e2", "b", "c"), NewEdge("e3", "c", "d"), NewEdge("e4", "d", "a")},
	}
	for i, edges := range suites {
		h := New()
		for _, e := range edges {
			h.AddEdge(e)
		}
		jt := h.JoinTree()
		if (jt != nil) != h.GYOAcyclic() {
			t.Errorf("case %d: JoinTree=%v GYO=%v", i, jt != nil, h.GYOAcyclic())
		}
	}
}

// TestFig3Hypertrees reproduces Fig. 3 exactly: Q1={Q1,Q3,Q4,Q5} is NOT a
// hypertree; Q2={Q1,Q3,Q5} and Q3={Q1,Q2,Q5} ARE.
func TestFig3Hypertrees(t *testing.T) {
	set1 := fig3("Q1", "Q3", "Q4", "Q5")
	set2 := fig3("Q1", "Q3", "Q5")
	set3 := fig3("Q1", "Q2", "Q5")
	if set1.IsHypertree() {
		t.Error("Fig 3(a): {Q1,Q3,Q4,Q5} wrongly reported a hypertree")
	}
	if !set2.IsHypertree() {
		t.Error("Fig 3(b): {Q1,Q3,Q5} not recognized as hypertree")
	}
	if !set3.IsHypertree() {
		t.Error("Fig 3(c): {Q1,Q2,Q5} not recognized as hypertree")
	}
}

func TestIsForest(t *testing.T) {
	// Two disconnected hypertree components: forest.
	h := New()
	h.AddEdge(NewEdge("a", "1", "2"))
	h.AddEdge(NewEdge("b", "2", "3"))
	h.AddEdge(NewEdge("c", "8", "9"))
	if !h.IsForest() {
		t.Error("forest not recognized")
	}
	// One cyclic component poisons the forest.
	h.AddEdge(NewEdge("x", "p", "q"))
	h.AddEdge(NewEdge("y", "q", "r"))
	h.AddEdge(NewEdge("z", "p", "r"))
	if h.IsForest() {
		t.Error("cyclic component not detected")
	}
	if (&Hypergraph{}).IsHypertree() != true {
		t.Error("empty hypergraph should be a hypertree")
	}
}

func TestDual(t *testing.T) {
	h := fig3("Q3", "Q5") // Q3={T1,T2}, Q5={T2,T3}
	d := h.Dual()
	// Dual: vertices Q3,Q5; edges per T1,T2,T3: {Q3},{Q3,Q5},{Q5}.
	if len(d.Vertices()) != 2 || len(d.Edges) != 3 {
		t.Fatalf("dual = %s", d)
	}
	found := map[string]int{}
	for _, e := range d.Edges {
		found[e.Name] = len(e.Vertices)
	}
	if found["v:T1"] != 1 || found["v:T2"] != 2 || found["v:T3"] != 1 {
		t.Errorf("dual edges = %v", found)
	}
}

// TestEmptyHostTree: the empty hypergraph trivially admits a host tree,
// so it is a hypertree and a forest, but it has no join tree.
func TestEmptyHostTree(t *testing.T) {
	if !New().IsHypertree() || !New().IsForest() {
		t.Error("empty hypergraph should be a hypertree and a forest")
	}
	if New().JoinTree() != nil {
		t.Error("empty hypergraph JoinTree should be nil")
	}
}
