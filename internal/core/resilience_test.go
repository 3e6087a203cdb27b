package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/workload"
)

func TestResilienceFig1(t *testing.T) {
	w := workload.Fig1()
	// Q3 = T1 ⋈ T2: emptying all six answers. Deleting all of T2 costs 3;
	// deleting T1's four rows costs 4; mixed covers exist. The bipartite
	// optimum must empty the view.
	q := w.Queries[0]
	sol, method, err := Resilience(context.Background(), q, w.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if method != "bipartite-vertex-cover" {
		t.Errorf("method = %q, want bipartite-vertex-cover", method)
	}
	empty, err := VerifyEmpty(q, w.DB, sol)
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Fatalf("resilience witness does not empty the view: %s", sol)
	}
	n := len(sol.Deleted)
	// Cross-check against the exact hitting-set solver.
	exact, err := resilienceExact(context.Background(), q, w.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nExact := len(exact.Deleted); n != nExact {
		t.Errorf("bipartite resilience %d != exact %d", n, nExact)
	}
	if n != 3 { // T2 has 3 tuples; every T1 row joins some T2 row pairwise distinctly
		t.Logf("fig1 resilience = %d (informational)", n)
	}
}

// TestResilienceBipartiteMatchesExactRandom: the König route and the
// hitting-set route agree on random two-atom instances.
func TestResilienceBipartiteMatchesExactRandom(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := relation.NewInstance(
			relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
			relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
		)
		for i := 0; i < 8; i++ {
			_ = db.Insert("R", relation.Tuple{
				relation.Value(string(rune('0' + rng.Intn(4)))),
				relation.Value(string(rune('0' + rng.Intn(3)))),
			})
			_ = db.Insert("S", relation.Tuple{
				relation.Value(string(rune('0' + rng.Intn(3)))),
				relation.Value(string(rune('0' + rng.Intn(4)))),
			})
		}
		solB, err := resilienceBipartite(q, db)
		if err != nil {
			t.Fatal(err)
		}
		solE, err := resilienceExact(context.Background(), q, db, 0)
		if err != nil {
			t.Fatal(err)
		}
		if nB, nE := len(solB.Deleted), len(solE.Deleted); nB != nE {
			t.Errorf("seed %d: bipartite %d != exact %d", seed, nB, nE)
		}
		if empty, _ := VerifyEmpty(q, db, solB); !empty {
			t.Errorf("seed %d: bipartite witness leaves answers", seed)
		}
	}
}

// TestResilienceProjection: projections don't change resilience (it
// depends on derivations, not heads).
func TestResilienceProjection(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
	)
	db.MustInsert("R", "1", "x")
	db.MustInsert("R", "2", "x")
	db.MustInsert("S", "x", "9")
	full := cq.MustParse("Q(a, b, c) :- R(a, b), S(b, c)")
	proj := cq.MustParse("Q(a) :- R(a, b), S(b, c)")
	solFull, _, err := Resilience(context.Background(), full, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	solProj, _, err := Resilience(context.Background(), proj, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nFull, nProj := len(solFull.Deleted), len(solProj.Deleted); nFull != nProj || nFull != 1 { // deleting S(x,9) suffices
		t.Errorf("resilience full=%d proj=%d, want 1/1", nFull, nProj)
	}
}

func TestResilienceEmptyResult(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
	)
	db.MustInsert("R", "1", "x")
	q := cq.MustParse("Q(a, b, c) :- R(a, b), S(b, c)")
	sol, _, err := Resilience(context.Background(), q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sol.Deleted); n != 0 {
		t.Errorf("empty result resilience = %d", n)
	}
}

// TestResilienceThreeAtomFallback: three-atom queries take the exact
// route and still produce a verified witness.
func TestResilienceThreeAtomFallback(t *testing.T) {
	w := workload.Pivot(workload.PivotConfig{Seed: 2, Roots: 2, ChildrenPerRoot: 2, GrandPerChild: 1})
	q := w.Queries[1] // QG over Root, Child, Grand
	sol, method, err := Resilience(context.Background(), q, w.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if method != "exact-hitting-set" {
		t.Errorf("method = %q, want exact-hitting-set", method)
	}
	empty, err := VerifyEmpty(q, w.DB, sol)
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Fatal("three-atom witness leaves answers")
	}
	// Deleting the two roots always suffices; resilience ≤ #roots.
	if n := len(sol.Deleted); n > 2 {
		t.Errorf("resilience = %d, expected ≤ 2 (delete the roots)", n)
	}
}

func TestResilienceSelfJoinUsesExact(t *testing.T) {
	db := relation.NewInstance(relation.MustSchema("E", []string{"a", "b"}, []int{0, 1}))
	db.MustInsert("E", "a", "b")
	db.MustInsert("E", "b", "c")
	q := cq.MustParse("Q(x, y, z) :- E(x, y), E(y, z)")
	sol, method, err := Resilience(context.Background(), q, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if method != "exact-hitting-set" {
		t.Errorf("method = %q, want exact-hitting-set", method)
	}
	// The only derivation is E(a,b) ⋈ E(b,c); deleting either empties it.
	if n := len(sol.Deleted); n != 1 {
		t.Errorf("self-join resilience = %d, want 1", n)
	}
	if empty, _ := VerifyEmpty(q, db, sol); !empty {
		t.Error("witness leaves answers")
	}
}

// TestResilienceMatchesExhaustive: on random instances with at most 16
// tuples in any derivation, the exact route's resilience equals the
// exhaustive minimum hitting set over all derivations, and its witness
// empties the query. The triangle query is a triad; the two-atom
// self-join bypasses the bipartite route.
func TestResilienceMatchesExhaustive(t *testing.T) {
	queries := []string{
		"Q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
		"Q(x, y, z) :- E(x, y), E(y, z)",
	}
	for _, src := range queries {
		q := cq.MustParse(src)
		checked := 0
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := relation.NewInstance(
				relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
				relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
				relation.MustSchema("T", []string{"a", "b"}, []int{0, 1}),
				relation.MustSchema("E", []string{"a", "b"}, []int{0, 1}),
			)
			for i := 0; i < 6; i++ {
				for _, rel := range []string{"R", "S", "T", "E"} {
					_ = db.Insert(rel, relation.Tuple{
						relation.Value(fmt.Sprint(rng.Intn(3))),
						relation.Value(fmt.Sprint(rng.Intn(3))),
					})
				}
			}
			res, err := cq.Evaluate(q, db)
			if err != nil {
				t.Fatal(err)
			}
			var derivs []cq.Derivation
			seen := make(map[string]relation.TupleID)
			for _, ans := range res.Answers() {
				for _, d := range ans.Derivations() {
					derivs = append(derivs, d)
					for _, id := range d {
						seen[id.Key()] = id
					}
				}
			}
			if len(derivs) == 0 || len(seen) > 16 {
				continue
			}
			var cands []relation.TupleID
			for _, id := range seen {
				cands = append(cands, id)
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].Key() < cands[j].Key() })
			sol, _, err := Resilience(context.Background(), q, db, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", src, seed, err)
			}
			if n, want := len(sol.Deleted), minHittingCost(cands, derivs); float64(n) != want {
				t.Errorf("%s seed %d: resilience %d, exhaustive minimum %v", src, seed, n, want)
			}
			if empty, err := VerifyEmpty(q, db, sol); err != nil || !empty {
				t.Errorf("%s seed %d: witness %s does not empty the query (%v)", src, seed, sol, err)
			}
			checked++
		}
		if checked < 5 {
			t.Fatalf("%s: only %d instances within the 16-candidate oracle limit", src, checked)
		}
	}
}
