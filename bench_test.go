// Benchmarks regenerating every table and figure of the paper plus the
// theorem-validation experiments, one testing.B target per artifact. The
// printed experiment output comes from cmd/benchrunner; these benchmarks
// measure the cost of regenerating each artifact and serve as the
// performance-regression net.
package delprop_test

import (
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"delprop/internal/bench"
	"delprop/internal/classify"
	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/fd"
	"delprop/internal/hypergraph"
	"delprop/internal/reduction"
	"delprop/internal/relation"
	"delprop/internal/setcover"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// benchExperiment runs a bench.Experiment once per iteration, discarding
// output.
func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II (poly source side-effect rows).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkTable3 regenerates Table III (hard source side-effect rows).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkTable4 regenerates Table IV (poly view side-effect rows).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkTable5 regenerates Table V (hard view side-effect rows).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkFig1 regenerates the Fig. 1 worked example (E5).
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkFig2 regenerates the Fig. 2 reduction example (E6).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkFig3 regenerates the Fig. 3 hypertree classification (E7).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "E7") }

// starProblem builds the standard general-case instance used by the
// theorem benches.
func starProblem(b *testing.B, seed int64) *core.Problem {
	b.Helper()
	w := workload.Star(workload.StarConfig{
		Seed: seed, Relations: 4, HubValues: 3, RowsPerRelation: 6,
		Queries: 3, AtomsPerQuery: 2,
	})
	p, err := core.NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err = p.Specialize(workload.SampleDeletion(p.Views, 4, seed+1))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func chainProblem(b *testing.B, seed int64, length int) *core.Problem {
	b.Helper()
	w := workload.Chain(workload.ChainConfig{
		Seed: seed, Length: length, Domain: 3, RowsPerRelation: 5,
		Queries: 3, MaxSpan: 3,
	})
	p, err := core.NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err = p.Specialize(workload.SampleDeletion(p.Views, 3, seed+1))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func pivotProblem(b *testing.B, seed int64, roots int) *core.Problem {
	b.Helper()
	w := workload.Pivot(workload.PivotConfig{
		Seed: seed, Roots: roots, ChildrenPerRoot: 4, GrandPerChild: 3,
	})
	p, err := core.NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		b.Fatal(err)
	}
	p, err = p.Specialize(workload.SampleDeletion(p.Views, roots, seed+1))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchSolver(b *testing.B, p *core.Problem, s core.Solver) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClaim1RedBlue measures the Claim 1 general-case solver (E8).
func BenchmarkClaim1RedBlue(b *testing.B) {
	benchSolver(b, starProblem(b, 3), &core.RedBlue{})
}

// BenchmarkClaim1Exact measures the exact reference on the same encoding.
func BenchmarkClaim1Exact(b *testing.B) {
	benchSolver(b, starProblem(b, 3), &core.RedBlueExact{})
}

// BenchmarkLemma1Balanced measures the balanced solver (E9).
func BenchmarkLemma1Balanced(b *testing.B) {
	benchSolver(b, starProblem(b, 3), &core.BalancedRedBlue{})
}

// BenchmarkThm3PrimalDual measures Algorithm 1 on forest instances (E10).
func BenchmarkThm3PrimalDual(b *testing.B) {
	benchSolver(b, chainProblem(b, 3, 5), &core.PrimalDual{})
}

// BenchmarkThm4LowDegTwo measures Algorithms 2–3 on forest instances (E11).
func BenchmarkThm4LowDegTwo(b *testing.B) {
	benchSolver(b, chainProblem(b, 3, 4), &core.LowDegTreeTwo{})
}

// BenchmarkDPTree measures Algorithm 4 across forest sizes (E12 / Prop 1).
func BenchmarkDPTree(b *testing.B) {
	for _, roots := range []int{5, 20, 80} {
		p := pivotProblem(b, 7, roots)
		b.Run(sizeName(roots), func(b *testing.B) {
			benchSolver(b, p, &core.DPTree{})
		})
	}
}

func sizeName(n int) string {
	switch {
	case n < 10:
		return "small"
	case n < 50:
		return "medium"
	default:
		return "large"
	}
}

// BenchmarkUnidimensional measures the Table IV PTime algorithm on a
// head-dominated single-deletion instance.
func BenchmarkUnidimensional(b *testing.B) {
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
	)
	for i := 0; i < 30; i++ {
		db.MustInsert("R", fmt.Sprintf("y%d", i%6), fmt.Sprintf("x%d", i%5))
		db.MustInsert("S", fmt.Sprintf("x%d", i%5), fmt.Sprintf("z%d", i))
	}
	q := cq.MustParse("Q(y) :- R(y, x), S(x, z)")
	p, err := core.NewProblem(db, []*cq.Query{q}, nil)
	if err != nil {
		b.Fatal(err)
	}
	if p, err = p.Specialize(view.NewDeletion(view.TupleRef{View: 0, Tuple: p.Views[0].Result.Tuple(0)})); err != nil {
		b.Fatal(err)
	}
	benchSolver(b, p, &core.Unidimensional{})
}

// BenchmarkGreedyBaseline measures the greedy baseline (E13).
func BenchmarkGreedyBaseline(b *testing.B) {
	benchSolver(b, starProblem(b, 3), &core.Greedy{})
}

// BenchmarkMaterialize measures view materialization with provenance —
// the substrate cost every experiment pays (E13).
func BenchmarkMaterialize(b *testing.B) {
	w := workload.Star(workload.StarConfig{
		Seed: 5, Relations: 4, HubValues: 4, RowsPerRelation: 40,
		Queries: 3, AtomsPerQuery: 2,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := view.Materialize(w.Queries, w.DB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures provenance-based solution scoring (E13).
func BenchmarkEvaluate(b *testing.B) {
	p := starProblem(b, 5)
	sol := &core.Solution{Deleted: p.CandidateTuples()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Evaluate(sol)
	}
}

// BenchmarkHardnessGapReduction measures building a Theorem 1 instance
// from a Red-Blue input (E14).
func BenchmarkHardnessGapReduction(b *testing.B) {
	inst := &setcover.Instance{NumRed: 6, NumBlue: 6}
	for i := 0; i < 6; i++ {
		inst.Sets = append(inst.Sets, setcover.Set{
			Reds:  []int{i, (i + 1) % 6},
			Blues: []int{i, (i + 2) % 6},
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reduction.FromRedBlue(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDualBound measures the LP lower-bound computation: on a small
// star problem, and on warm requests against bench/load's pivot (8
// deletions) and chain (4 deletions) instances.
func BenchmarkDualBound(b *testing.B) {
	warm := func(b *testing.B, w *workload.Workload, deletions int) *core.Problem {
		skel, err := core.NewProblem(w.DB, w.Queries, nil)
		if err != nil {
			b.Fatal(err)
		}
		p, err := skel.Specialize(workload.SampleDeletion(skel.Views, deletions, 1))
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, c := range []struct {
		name string
		p    func(*testing.B) *core.Problem
	}{
		{"star", func(b *testing.B) *core.Problem { return starProblem(b, 13) }},
		{"pivot", func(b *testing.B) *core.Problem {
			return warm(b, workload.Pivot(workload.PivotConfig{Seed: 7, Roots: 200, ChildrenPerRoot: 3, GrandPerChild: 2, Depth3: true}), 8)
		}},
		{"chain", func(b *testing.B) *core.Problem {
			return warm(b, workload.Chain(workload.ChainConfig{Seed: 7, Length: 6, Domain: 4, RowsPerRelation: 200, Queries: 5, MaxSpan: 3}), 4)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := c.p(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.DualBound(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaintainerDelete measures incremental view maintenance per
// source deletion (delete+undelete pair).
func BenchmarkMaintainerDelete(b *testing.B) {
	w := workload.Star(workload.StarConfig{
		Seed: 5, Relations: 4, HubValues: 4, RowsPerRelation: 40,
		Queries: 3, AtomsPerQuery: 2,
	})
	views, err := view.Materialize(w.Queries, w.DB)
	if err != nil {
		b.Fatal(err)
	}
	idx := view.BuildIndex(views)
	m := idx.NewMaintainer()
	n := int32(idx.NumTuples())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := int32(i) % n
		m.Delete(t)
		m.Undelete(t)
	}
}

// BenchmarkAblationIndex compares provenance-index construction against
// per-query occurrence scans (DESIGN.md ablation).
func BenchmarkAblationIndex(b *testing.B) {
	w := workload.Star(workload.StarConfig{
		Seed: 5, Relations: 4, HubValues: 4, RowsPerRelation: 30,
		Queries: 3, AtomsPerQuery: 2,
	})
	views, err := view.Materialize(w.Queries, w.DB)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("inverted-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view.BuildIndex(views)
		}
	})
	b.Run("derivation-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, v := range views {
				for _, ans := range v.Result.Answers() {
					for _, d := range ans.Derivations() {
						var distinct []relation.TupleID
						for _, id := range d {
							if !slices.ContainsFunc(distinct, id.Equal) {
								distinct = append(distinct, id)
							}
						}
						n += len(distinct)
					}
				}
			}
			if n == 0 {
				b.Fatal("empty scan")
			}
		}
	})
}

// BenchmarkClassifyCorpus measures the table deciders over the full corpus.
func BenchmarkClassifyCorpus(b *testing.B) {
	entries := classify.Corpus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			var deps *fd.Set
			if e.WithFDs {
				var err error
				deps, err = classify.VariableFDs(e.Query, e.Schemas)
				if err != nil {
					b.Fatal(err)
				}
			}
			if _, err := classify.Analyze(e.Query, e.Schemas, deps); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHypertreeDetection measures the Fig. 3 hypertree test.
func BenchmarkHypertreeDetection(b *testing.B) {
	h := hypergraph.New()
	h.AddEdge(hypergraph.NewEdge("Q1", "T1", "T2", "T3"))
	h.AddEdge(hypergraph.NewEdge("Q3", "T1", "T2"))
	h.AddEdge(hypergraph.NewEdge("Q5", "T2", "T3"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !h.IsHypertree() {
			b.Fatal("expected hypertree")
		}
	}
}

// BenchmarkCQEvaluate measures the join evaluator on a 3-way join.
func BenchmarkCQEvaluate(b *testing.B) {
	w := workload.Pivot(workload.PivotConfig{Seed: 3, Roots: 30, ChildrenPerRoot: 4, GrandPerChild: 3})
	q := w.Queries[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Evaluate(q, w.DB); err != nil {
			b.Fatal(err)
		}
	}
}
