package workload

import (
	"fmt"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/hypergraph"
	"delprop/internal/view"
)

func TestFig1Exact(t *testing.T) {
	w := Fig1()
	if w.DB.Size() != 7 {
		t.Errorf("size = %d, want 7", w.DB.Size())
	}
	views, err := view.Materialize(w.Queries, w.DB)
	if err != nil {
		t.Fatal(err)
	}
	if views[0].Result.NumAnswers() != 6 || views[1].Result.NumAnswers() != 7 {
		t.Errorf("view sizes = %d, %d; want 6, 7 (Fig 1c/1d)", views[0].Result.NumAnswers(), views[1].Result.NumAnswers())
	}
	schemas := cq.InstanceSchemas(w.DB)
	kp3, _ := w.Queries[0].IsKeyPreserving(schemas)
	kp4, _ := w.Queries[1].IsKeyPreserving(schemas)
	if kp3 || !kp4 {
		t.Errorf("key-preserving: Q3=%v Q4=%v, want false/true", kp3, kp4)
	}
}

func TestBibliographyDeterministicAndValid(t *testing.T) {
	cfg := BibliographyConfig{Seed: 3, Authors: 10, Journals: 5, Topics: 4, PapersPerAuthor: 3, TopicsPerJournal: 2}
	a := Bibliography(cfg)
	b := Bibliography(cfg)
	if a.DB.String() != b.DB.String() {
		t.Error("same seed produced different databases")
	}
	if _, err := view.Materialize(a.Queries, a.DB); err != nil {
		t.Fatal(err)
	}
	c := Bibliography(BibliographyConfig{Seed: 4, Authors: 10, Journals: 5, Topics: 4, PapersPerAuthor: 3, TopicsPerJournal: 2})
	if a.DB.String() == c.DB.String() {
		t.Error("different seeds produced identical databases")
	}
}

func TestStarProperties(t *testing.T) {
	w := Star(StarConfig{Seed: 1, Relations: 4, HubValues: 3, RowsPerRelation: 6, Queries: 5, AtomsPerQuery: 2})
	if len(w.Queries) != 5 {
		t.Fatalf("queries = %d", len(w.Queries))
	}
	schemas := cq.InstanceSchemas(w.DB)
	for _, q := range w.Queries {
		if err := q.Validate(schemas); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !q.IsProjectFree() {
			t.Errorf("%s not project-free", q.Name)
		}
		kp, err := q.IsKeyPreserving(schemas)
		if err != nil || !kp {
			t.Errorf("%s key-preserving = %v, %v", q.Name, kp, err)
		}
		if len(q.Body) != 2 {
			t.Errorf("%s body = %d atoms", q.Name, len(q.Body))
		}
	}
	if _, err := view.Materialize(w.Queries, w.DB); err != nil {
		t.Fatal(err)
	}
}

func TestStarAtomCaps(t *testing.T) {
	w := Star(StarConfig{Seed: 1, Relations: 2, HubValues: 2, RowsPerRelation: 3, Queries: 1, AtomsPerQuery: 9})
	if len(w.Queries[0].Body) != 2 {
		t.Errorf("AtomsPerQuery not capped: %d", len(w.Queries[0].Body))
	}
	w2 := Star(StarConfig{Seed: 1, Relations: 2, HubValues: 2, RowsPerRelation: 3, Queries: 1, AtomsPerQuery: 0})
	if len(w2.Queries[0].Body) != 1 {
		t.Errorf("AtomsPerQuery floor missing: %d", len(w2.Queries[0].Body))
	}
}

func TestChainIsForest(t *testing.T) {
	w := Chain(ChainConfig{Seed: 2, Length: 5, Domain: 3, RowsPerRelation: 5, Queries: 6, MaxSpan: 3})
	schemas := cq.InstanceSchemas(w.DB)
	hg := hypergraph.New()
	for i, q := range w.Queries {
		if err := q.Validate(schemas); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		kp, _ := q.IsKeyPreserving(schemas)
		if !kp {
			t.Errorf("%s not key-preserving", q.Name)
		}
		hg.AddEdge(hypergraph.NewEdge(fmt.Sprintf("Q%d", i), q.RelationNames()...))
	}
	if !hg.IsForest() {
		t.Error("chain workload's dual hypergraph is not a forest")
	}
}

func TestPivotValid(t *testing.T) {
	w := Pivot(PivotConfig{Seed: 7, Roots: 3, ChildrenPerRoot: 3, GrandPerChild: 2})
	schemas := cq.InstanceSchemas(w.DB)
	for _, q := range w.Queries {
		if err := q.Validate(schemas); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		kp, _ := q.IsKeyPreserving(schemas)
		if !kp {
			t.Errorf("%s not key-preserving", q.Name)
		}
	}
	if _, err := view.Materialize(w.Queries, w.DB); err != nil {
		t.Fatal(err)
	}
	// Depth3 variant adds a query and relation.
	w3 := Pivot(PivotConfig{Seed: 7, Roots: 2, ChildrenPerRoot: 2, GrandPerChild: 2, Depth3: true})
	if len(w3.Queries) != 3 || !w3.DB.HasRelation("GreatGrand") {
		t.Error("Depth3 variant incomplete")
	}
	if _, err := view.Materialize(w3.Queries, w3.DB); err != nil {
		t.Fatal(err)
	}
}

func TestSelfJoinProperties(t *testing.T) {
	w := SelfJoin(SelfJoinConfig{Seed: 3, Nodes: 5, Edges: 10, Queries: 3, MaxLen: 3})
	schemas := cq.InstanceSchemas(w.DB)
	for _, q := range w.Queries {
		if err := q.Validate(schemas); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !q.IsProjectFree() {
			t.Errorf("%s not project-free", q.Name)
		}
		kp, err := q.IsKeyPreserving(schemas)
		if err != nil || !kp {
			t.Errorf("%s key-preserving = %v, %v", q.Name, kp, err)
		}
		if len(q.Body) > 1 && q.IsSelfJoinFree() {
			t.Errorf("%s should contain a self-join", q.Name)
		}
	}
	if _, err := view.Materialize(w.Queries, w.DB); err != nil {
		t.Fatal(err)
	}
	// MaxLen floor.
	w2 := SelfJoin(SelfJoinConfig{Seed: 3, Nodes: 3, Edges: 4, Queries: 1, MaxLen: 0})
	if len(w2.Queries[0].Body) != 1 {
		t.Errorf("MaxLen floor missing: %d atoms", len(w2.Queries[0].Body))
	}
}

func TestPlantedErrors(t *testing.T) {
	w := Fig1()
	all := PlantedErrors(w.DB, 1.0, 1)
	if len(all) != w.DB.Size() {
		t.Errorf("fraction 1.0 planted %d of %d", len(all), w.DB.Size())
	}
	none := PlantedErrors(w.DB, 0, 1)
	if len(none) != 0 {
		t.Errorf("fraction 0 planted %d", len(none))
	}
	a := PlantedErrors(w.DB, 0.5, 7)
	b := PlantedErrors(w.DB, 0.5, 7)
	if len(a) != len(b) {
		t.Error("same seed produced different plants")
	}
}

func TestSampleDeletion(t *testing.T) {
	w := Fig1()
	views, _ := view.Materialize(w.Queries, w.DB)
	d1 := SampleDeletion(views, 4, 9)
	d2 := SampleDeletion(views, 4, 9)
	if d1.String() != d2.String() {
		t.Error("same seed produced different deletions")
	}
	if d1.Len() != 4 {
		t.Errorf("Len = %d, want 4", d1.Len())
	}
	x := view.BuildIndex(views)
	for _, ref := range d1.Refs() {
		if _, ok := x.LookupRef(ref); !ok {
			t.Fatalf("%s is not a view tuple", ref)
		}
	}
	// Oversized n clamps.
	if got := SampleDeletion(views, 1000, 1).Len(); got != 13 {
		t.Errorf("clamped Len = %d, want 13", got)
	}
	// Empty views.
	if got := SampleDeletion(nil, 3, 1).Len(); got != 0 {
		t.Errorf("empty views Len = %d", got)
	}
}

func TestSampleWeights(t *testing.T) {
	w := Fig1()
	views, _ := view.Materialize(w.Queries, w.DB)
	del := SampleDeletion(views, 3, 5)
	ws := SampleWeights(views, del, 4, 6)
	if len(ws) != 10 { // 13 view tuples - 3 deleted
		t.Errorf("weights = %d, want 10", len(ws))
	}
	for k, v := range ws {
		if v < 1 || v > 4 {
			t.Errorf("weight out of range: %s=%v", k, v)
		}
	}
	for _, ref := range del.Refs() {
		if _, ok := ws[ref.Key()]; ok {
			t.Error("deleted ref received a weight")
		}
	}
	// Deterministic.
	ws2 := SampleWeights(views, del, 4, 6)
	for k, v := range ws {
		if ws2[k] != v {
			t.Error("same seed produced different weights")
		}
	}
}
