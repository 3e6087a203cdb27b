package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/textio"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// warmNPWorkload is bench/load's bibliography-np instance: the
// bibliography generator with seed 7 under two projecting (non
// key-preserving) queries, so view tuples have several derivations.
func warmNPWorkload() *workload.Workload {
	w := workload.Bibliography(workload.BibliographyConfig{Seed: 7, Authors: 200, Journals: 30, Topics: 12, PapersPerAuthor: 4, TopicsPerJournal: 3})
	w.Queries = []*cq.Query{
		cq.MustParse("Pub(x, y, z) :- Author(x, y), Journal(y, z, w)"),
		cq.MustParse("PubT(x, z) :- Author(x, y), Journal(y, z, w)"),
	}
	return w
}

// warmNPProblem is the bibliography-np skeleton with an empty request.
func warmNPProblem(tb testing.TB) *Problem {
	tb.Helper()
	w := warmNPWorkload()
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// namedProblem is one skeleton of a randomized check.
type namedProblem struct {
	name string
	p    *Problem
}

// evaluateInstances are the skeletons the randomized Evaluate check runs
// on: star, chain, pivot and bibliography-np.
func evaluateInstances(t *testing.T) []namedProblem {
	t.Helper()
	out := []namedProblem{{"bibliography-np", warmNPProblem(t)}}
	for _, w := range []struct {
		name string
		w    *workload.Workload
	}{
		{"star", workload.Star(workload.StarConfig{Seed: 3, Relations: 5, HubValues: 4, RowsPerRelation: 12, Queries: 3, AtomsPerQuery: 2})},
		{"chain", workload.Chain(workload.ChainConfig{Seed: 3, Length: 5, Domain: 4, RowsPerRelation: 20, Queries: 4, MaxSpan: 3})},
		{"pivot", workload.Pivot(workload.PivotConfig{Seed: 3, Roots: 8, ChildrenPerRoot: 2, GrandPerChild: 2, Depth3: true})},
	} {
		p, err := NewProblem(w.w.DB, w.w.Queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedProblem{w.name, p})
	}
	return out
}

// TestEvaluateOutputSensitiveMatchesReevaluation: Evaluate, which walks
// out from ΔD's occurrences, must return exactly EvaluateByReevaluation's
// report — collateral order and weighted side-effect bits included — for
// random requests, random weights and random ΔD with duplicates, tuples
// no view uses and tuples of no relation.
func TestEvaluateOutputSensitiveMatchesReevaluation(t *testing.T) {
	for _, inst := range evaluateInstances(t) {
		name, skel := inst.name, inst.p
		all := skel.DB.AllTuples()
		unused := []relation.TupleID{{Relation: "NoSuchRelation", Tuple: relation.Tuple{"x"}}}
		for _, id := range all {
			if _, ok := skel.Index().LookupTuple(id); !ok {
				unused = append(unused, id)
			}
		}
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 25; trial++ {
			p, err := skel.Specialize(workload.SampleDeletion(skel.Views, 1+rng.Intn(4), rng.Int63()))
			if err != nil {
				t.Fatal(err)
			}
			if trial%2 == 1 {
				setWeights(p, workload.SampleWeights(p.Views, view.NewDeletion(p.DeltaRefs()...), 5, rng.Int63()))
			}
			var del []relation.TupleID
			for n := rng.Intn(12); n > 0; n-- {
				del = append(del, all[rng.Intn(len(all))])
			}
			if len(del) > 0 && trial%3 == 0 {
				del = append(del, del[rng.Intn(len(del))])
			}
			if trial%4 == 0 {
				del = append(del, unused[rng.Intn(len(unused))])
			}
			// Every fifth trial deletes a request's whole join path, so
			// feasible reports are covered too.
			if trial%5 == 0 {
				ans, _ := p.Answer(p.DeltaRefs()[0])
				for _, d := range ans.Derivations() {
					del = append(del, d[0])
				}
			}
			sol := &Solution{Deleted: del}
			got := p.Evaluate(sol)
			want, err := p.EvaluateByReevaluation(sol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: ΔD=%v\nEvaluate:     %+v\nReevaluation: %+v", name, trial, del, got, want)
			}
		}
	}
}

// TestNewMaintainerAllocs: a maintainer is fresh counters over the
// skeleton's shared index — the struct and its three slices — so it
// costs no provenance copy however large the views are.
func TestNewMaintainerAllocs(t *testing.T) {
	p := warmNPProblem(t)
	x := p.Index()
	x.NewMaintainer()
	if n := testing.AllocsPerRun(20, func() { x.NewMaintainer() }); n > 4 {
		t.Errorf("NewMaintainer allocates %v times per call, want <= 4", n)
	}
}

// warmPivotProblem is a warm Specialize of bench/load's pivot instance
// with an 8-tuple request, the size bench/load asks for.
func warmPivotProblem(t *testing.T) *Problem {
	t.Helper()
	w := workload.Pivot(workload.PivotConfig{Seed: 7, Roots: 200, ChildrenPerRoot: 3, GrandPerChild: 2, Depth3: true})
	skel, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := skel.Specialize(workload.SampleDeletion(skel.Views, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWarmPivotAllocs: on a warm request the dual bound and the pivot
// forest DP read the skeleton's index by id, so their allocations follow
// the request, not ‖V‖.
func TestWarmPivotAllocs(t *testing.T) {
	p := warmPivotProblem(t)
	if !IsPivotForest(p) {
		t.Fatal("bench/load's pivot instance is not a pivot forest")
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DualBound(p); err != nil {
			t.Fatal(err)
		}
	}); n > 64 {
		t.Errorf("DualBound allocates %v times per call, want <= 64", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := (&DPTree{}).Solve(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}); n > 64 {
		t.Errorf("DPTree.Solve allocates %v times per call, want <= 64", n)
	}
}

// loadWorkloads are bench/load's four registration instances, built with
// its generator configs.
func loadWorkloads() []struct {
	name string
	w    *workload.Workload
} {
	return []struct {
		name string
		w    *workload.Workload
	}{
		{"chain", workload.Chain(workload.ChainConfig{Seed: 7, Length: 6, Domain: 4, RowsPerRelation: 200, Queries: 5, MaxSpan: 3})},
		{"bibliography", workload.Bibliography(workload.BibliographyConfig{Seed: 7, Authors: 60, Journals: 12, Topics: 8, PapersPerAuthor: 4, TopicsPerJournal: 3})},
		{"pivot", workload.Pivot(workload.PivotConfig{Seed: 7, Roots: 200, ChildrenPerRoot: 3, GrandPerChild: 2, Depth3: true})},
		{"bibliography-np", warmNPWorkload()},
	}
}

// TestNewProblemAllocs: registering bibliography-np compiles each query's
// join once and stores answers, derivations and the index in flat arrays,
// so its allocations do not grow with the number of answers.
func TestNewProblemAllocs(t *testing.T) {
	w := warmNPWorkload()
	if n := testing.AllocsPerRun(5, func() {
		if _, err := NewProblem(w.DB, w.Queries, nil); err != nil {
			t.Fatal(err)
		}
	}); n > 10000 {
		t.Errorf("NewProblem allocates %v times per call, want <= 10000", n)
	}
}

// retainedKB returns the live heap, in KB, that one call of build keeps
// after garbage collection, such as one NewProblem over a workload: the
// materialized views and the provenance index, not the instance. It
// takes the least of three measurements, so a stray allocation elsewhere
// cannot inflate it. Each reading collects twice: objects a sync.Pool
// dropped survive one collection in its victim cache.
func retainedKB(tb testing.TB, build func() (any, error)) float64 {
	tb.Helper()
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	best := math.Inf(1)
	for range 3 {
		before := live()
		kept, err := build()
		if err != nil {
			tb.Fatal(err)
		}
		after := live()
		runtime.KeepAlive(kept)
		best = min(best, (float64(after)-float64(before))/1024)
	}
	return best
}

// register builds a skeleton over w.
func register(w *workload.Workload) func() (any, error) {
	return func() (any, error) { return NewProblem(w.DB, w.Queries, nil) }
}

// registerText builds a skeleton from w's database and query texts, as
// POST /sessions does: render both, then Prepare a resident source. The
// texts are rendered inside the call, so a skeleton that kept its text
// alive would count it.
func registerText(w *workload.Workload) func() (any, error) {
	return func() (any, error) {
		db, queries := textio.FormatDatabase(w.DB), programText(w.Queries)
		return Prepare(Source{Database: db, Queries: queries, Resident: true}, nil)
	}
}

// TestSkeletonRetainedHeap: a skeleton stores each derivation once, as
// int32 rows into relation snapshots, and its index holds no string
// table, so registering bibliography-np keeps at most 900 KB live. Two
// copies of every derivation as TupleIDs plus a key table kept 1,260 KB.
// Built from the texts, as POST /sessions builds it, a skeleton also
// keeps its parsed instance: each relation's tuples once, an int32 key
// table and, while no row is deleted, a Tuples() snapshot that is the
// row array itself. A string-keyed key index and a copied snapshot per
// relation kept 287 KB for pivot and 538 KB for bibliography-np.
func TestSkeletonRetainedHeap(t *testing.T) {
	if kb := retainedKB(t, register(warmNPWorkload())); kb > 900 {
		t.Errorf("NewProblem on bibliography-np retains %.0f KB, want <= 900", kb)
	}
	ceiling := map[string]float64{"pivot": 240, "bibliography-np": 530}
	for _, lw := range loadWorkloads() {
		limit, ok := ceiling[lw.name]
		if !ok {
			continue
		}
		kb := retainedKB(t, registerText(lw.w))
		t.Logf("session/%s retains %.1f KB", lw.name, kb)
		if kb > limit {
			t.Errorf("registering %s from its texts retains %.0f KB, want <= %.0f", lw.name, kb, limit)
		}
	}
}

// TestPivotForestRetainedHeap: the pivot forest IsPivotForest memoizes
// on bench/load's pivot skeleton is int32 arrays over tuple ids, so it
// keeps at most 20 KB live. A node struct per tuple, with two slice
// headers and child pointers, kept 78 KB.
func TestPivotForestRetainedHeap(t *testing.T) {
	p := warmPivotProblem(t)
	if !IsPivotForest(p) {
		t.Fatal("bench/load's pivot instance is not a pivot forest")
	}
	kb := retainedKB(t, func() (any, error) { return buildPivotForest(p) })
	t.Logf("pivot forest retains %.1f KB", kb)
	if kb > 20 {
		t.Errorf("the pivot forest retains %.1f KB, want <= 20", kb)
	}
}

// programText renders queries as a datalog program, one rule a line.
func programText(qs []*cq.Query) string {
	lines := make([]string, len(qs))
	for i, q := range qs {
		lines[i] = q.String()
	}
	return strings.Join(lines, "\n")
}

// BenchmarkNewProblem measures registering each bench/load instance:
// materializing the views and building the provenance index. The
// session/ cases measure the whole POST /sessions build from the texts
// bench/load sends: parsing the database and the queries, then
// NewProblem. Each case reports the heap one registration retains; a
// session/ case's includes its parsed instance.
func BenchmarkNewProblem(b *testing.B) {
	run := func(name string, build func() (any, error)) {
		kb := retainedKB(b, build)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(kb, "retained-KB")
		})
	}
	for _, lw := range loadWorkloads() {
		run(lw.name, register(lw.w))
	}
	for _, lw := range loadWorkloads() {
		run("session/"+lw.name, registerText(lw.w))
	}
}

// BenchmarkGreedyWarmNP measures one warm greedy solve on bibliography-np
// with an 8-tuple request, the bench/load warm-np request size.
func BenchmarkGreedyWarmNP(b *testing.B) {
	skel := warmNPProblem(b)
	p, err := skel.Specialize(workload.SampleDeletion(skel.Views, 8, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Greedy{}).Solve(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRedBlueWarmKP measures one warm red-blue solve on each
// bench/load warm-kp instance that auto routes to red-blue (key-preserving,
// not a pivot forest), with a 4-tuple request, the bench/load warm-kp
// request size.
func BenchmarkRedBlueWarmKP(b *testing.B) {
	for _, lw := range loadWorkloads() {
		skel, err := NewProblem(lw.w.DB, lw.w.Queries, nil)
		if err != nil {
			b.Fatal(err)
		}
		p, err := skel.Specialize(workload.SampleDeletion(skel.Views, 4, 1))
		if err != nil {
			b.Fatal(err)
		}
		if !p.IsKeyPreserving() || IsPivotForest(p) {
			continue
		}
		b.Run(lw.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (&RedBlue{}).Solve(context.Background(), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
