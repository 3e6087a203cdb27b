package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

func TestSourceExactFig1Q3(t *testing.T) {
	p := fig1Q3Problem(t)
	// (John,XML) has two derivations sharing no tuple; hitting both needs
	// 2 deletions... unless one tuple lies on both paths — here the paths
	// are {T1(John,TKDE),T2(TKDE,XML,30)} and {T1(John,TODS),
	// T2(TODS,XML,30)}, disjoint, so the optimum is 2.
	sol, err := (&SourceExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol)
	if !feasible || cost != 2 {
		t.Errorf("source optimum = %v feasible=%v, want 2/true", cost, feasible)
	}
}

func TestSourceExactFig1Q4(t *testing.T) {
	p := fig1Q4Problem(t)
	sol, err := (&SourceExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol)
	if !feasible || cost != 1 {
		t.Errorf("source optimum = %v feasible=%v, want 1/true", cost, feasible)
	}
}

func TestSourceExactSharedTuple(t *testing.T) {
	// Two requested view tuples sharing a source tuple: optimum 1.
	p := fig1Q4Problem(t)
	p = respecialize(t, p, view.NewDeletion(append(p.DeltaRefs(), view.TupleRef{View: 0, Tuple: tup("John", "TKDE", "CUBE")})...))
	sol, err := (&SourceExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol)
	if !feasible || cost != 1 {
		t.Errorf("shared-tuple optimum = %v feasible=%v, want 1 (delete T1(John,TKDE))", cost, feasible)
	}
	if sol.Deleted[0].Key() != (relation.TupleID{Relation: "T1", Tuple: tup("John", "TKDE")}).Key() {
		t.Errorf("expected T1(John,TKDE), got %s", sol)
	}
}

func TestSourceExactTooLarge(t *testing.T) {
	p := fig1Q3Problem(t)
	if _, err := (&SourceExact{MaxCandidates: 1}).Solve(context.Background(), p); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestSourceSingleQueryExact(t *testing.T) {
	p := fig1Q4Problem(t)
	sol, err := (&SourceSingleQueryExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible := p.SourceSideEffect(sol)
	if !feasible || cost != 1 {
		t.Errorf("single-query source = %v/%v", cost, feasible)
	}
	// Multi-deletion path still exact.
	p = respecialize(t, p, view.NewDeletion(append(p.DeltaRefs(), view.TupleRef{View: 0, Tuple: tup("Joe", "TKDE", "XML")})...))
	sol, err = (&SourceSingleQueryExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cost, feasible = p.SourceSideEffect(sol)
	// Optimal: delete T2(TKDE,XML,30), killing both requested tuples.
	if !feasible || cost != 1 {
		t.Errorf("multi source = %v/%v, want 1/true", cost, feasible)
	}
	// Preconditions.
	w := fig1Q3Problem(t)
	if _, err := (&SourceSingleQueryExact{}).Solve(context.Background(), w); !errors.Is(err, ErrNotKeyPreserving) {
		t.Errorf("err = %v, want ErrNotKeyPreserving", err)
	}
	multi := starProblem(t, 1, 2)
	if _, err := (&SourceSingleQueryExact{}).Solve(context.Background(), multi); err == nil {
		t.Error("multi-query accepted")
	}
}

// TestSourceVsViewObjectivesDiffer documents the paper's distinction: the
// source-optimal and view-optimal deletions can disagree.
func TestSourceVsViewObjectivesDiffer(t *testing.T) {
	p := fig1Q4Problem(t)
	src, err := (&SourceExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := (&BruteForce{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Both have source cost 1 here, but the view side-effects differ when
	// the source solver picks the T2 tuple; at minimum the two objectives
	// must each be optimal in their own terms.
	sc, _ := p.SourceSideEffect(src)
	vc, _ := p.SourceSideEffect(vw)
	if sc > vc {
		t.Errorf("source-exact deleted more tuples (%v) than the view optimum (%v)", sc, vc)
	}
	if p.Evaluate(vw).SideEffect > p.Evaluate(src).SideEffect {
		t.Error("view optimum has worse view side-effect than the source optimum")
	}
}

// minHittingCost is the exhaustive oracle for the source objective: the
// smallest subset of cands that shares a tuple with every derivation,
// found by enumerating all 2^len(cands) subsets.
func minHittingCost(cands []relation.TupleID, derivs []cq.Derivation) float64 {
	bit := make(map[string]int, len(cands))
	for i, id := range cands {
		bit[id.Key()] = i
	}
	masks := make([]uint32, len(derivs))
	for i, d := range derivs {
		for _, id := range d {
			masks[i] |= 1 << bit[id.Key()]
		}
	}
	best := math.Inf(1)
	for sub := uint32(0); sub < 1<<len(cands); sub++ {
		hits := true
		for _, m := range masks {
			if m&sub == 0 {
				hits = false
				break
			}
		}
		if !hits {
			continue
		}
		best = math.Min(best, float64(bits.OnesCount32(sub)))
	}
	return best
}

// TestSourceExactMatchesExhaustive: on every star/chain/pivot seed with at
// most 16 candidate tuples, SourceExact's solution is feasible and costs
// exactly the exhaustive minimum.
func TestSourceExactMatchesExhaustive(t *testing.T) {
	makers := []struct {
		name string
		mk   func(*testing.T, int64, int) *Problem
	}{{"star", starProblem}, {"chain", chainProblem}, {"pivot", pivotProblem}}
	checked := 0
	for _, m := range makers {
		for seed := int64(1); seed <= 8; seed++ {
			for nDel := 1; nDel <= 4; nDel++ {
				p := m.mk(t, seed, nDel)
				cands := p.CandidateTuples()
				if p.DeltaLen() == 0 || len(cands) > 16 {
					continue
				}
				var derivs []cq.Derivation
				for _, ref := range p.DeltaRefs() {
					ans, _ := p.Answer(ref)
					derivs = append(derivs, ans.Derivations()...)
				}
				sol, err := (&SourceExact{}).Solve(context.Background(), p)
				if err != nil {
					t.Fatalf("%s/%d/%d: %v", m.name, seed, nDel, err)
				}
				cost, feasible := p.SourceSideEffect(sol)
				want := minHittingCost(cands, derivs)
				if !feasible || cost != want {
					t.Errorf("%s/%d/%d: source-exact cost %v feasible=%v, exhaustive minimum %v",
						m.name, seed, nDel, cost, feasible, want)
				}
				checked++
			}
		}
	}
	if checked < 30 {
		t.Fatalf("only %d instances within the 16-candidate oracle limit", checked)
	}
}

// SourceSideEffect evaluates the source-side-effect objective of a
// solution: the number of deleted tuples, plus feasibility.
func (p *Problem) SourceSideEffect(sol *Solution) (cost float64, feasible bool) {
	return float64(len(sol.Deleted)), p.Evaluate(sol).Feasible
}
