package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"delprop/internal/relation"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// naiveGreedy is the greedy rule re-derived from scratch: every probe
// recomputes survival, surviving derivations and collateral weight from
// provenance, with no view maintainer. It is the oracle the
// maintainer-backed scoring must reproduce exactly.
func naiveGreedy(p *Problem) (*Solution, error) {
	cands := p.CandidateTuples()
	deleted := make(map[string]bool)
	var chosen []relation.TupleID
	aliveBad := func() int {
		n := 0
		for _, ref := range p.DeltaRefs() {
			if ans, ok := p.Answer(ref); ok && view.Survives(ans, deleted) {
				n++
			}
		}
		return n
	}
	aliveDerivations := func() int {
		n := 0
		for _, ref := range p.DeltaRefs() {
			ans, ok := p.Answer(ref)
			if !ok {
				continue
			}
			for _, d := range ans.Derivations() {
				if !slices.ContainsFunc(d, func(id relation.TupleID) bool { return deleted[id.Key()] }) {
					n++
				}
			}
		}
		return n
	}
	collateralWeight := func() float64 {
		w := 0.0
		for _, ref := range preservedRefs(p) {
			if ans, _ := p.Answer(ref); !view.Survives(ans, deleted) {
				r, _ := p.Index().LookupRef(ref)
				w += p.rq.weight(r)
			}
		}
		return w
	}
	for {
		bad := aliveBad()
		if bad == 0 {
			return &Solution{Deleted: chosen}, nil
		}
		baseCollateral, baseDerivs := collateralWeight(), aliveDerivations()
		best, bestScore := -1, -1.0
		for i, id := range cands {
			k := id.Key()
			if deleted[k] {
				continue
			}
			deleted[k] = true
			killed := bad - aliveBad()
			cut := baseDerivs - aliveDerivations()
			extra := collateralWeight() - baseCollateral
			delete(deleted, k)
			if cut == 0 {
				continue
			}
			score := (float64(killed) + float64(cut)/float64(baseDerivs+1)) / (1 + extra)
			if score > bestScore {
				bestScore, best = score, i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("naive greedy stuck with %d requested view tuples alive", bad)
		}
		deleted[cands[best].Key()] = true
		chosen = append(chosen, cands[best])
	}
}

// preservedRefs returns V \ ΔV, every view tuple not requested for
// deletion, in (view, answer) order, straight from the views.
func preservedRefs(p *Problem) []view.TupleRef {
	requested := view.NewDeletion(p.DeltaRefs()...)
	var out []view.TupleRef
	for _, v := range p.Views {
		for _, ans := range v.Result.Answers() {
			ref := view.TupleRef{View: v.Index, Tuple: ans.Tuple}
			if !requested.Contains(ref) {
				out = append(out, ref)
			}
		}
	}
	return out
}

// TestGreedyIncrementalMatchesNaive: the maintainer-backed scoring, serial
// and parallel, must reproduce the naive re-derivation exactly (same
// deterministic decisions, hence same solutions).
func TestGreedyIncrementalMatchesNaive(t *testing.T) {
	makers := map[string]func(*testing.T, int64, int) *Problem{
		"star":  starProblem,
		"chain": chainProblem,
		"pivot": pivotProblem,
	}
	for name, mk := range makers {
		for seed := int64(1); seed <= 6; seed++ {
			p := mk(t, seed, 4)
			if p.DeltaLen() == 0 {
				continue
			}
			naive, err := naiveGreedy(p)
			if err != nil {
				t.Fatalf("%s/%d naive: %v", name, seed, err)
			}
			for _, g := range []*Greedy{{}, {Workers: 4}} {
				inc, err := g.Solve(context.Background(), p)
				if err != nil {
					t.Fatalf("%s/%d %s: %v", name, seed, g.Name(), err)
				}
				if !p.Evaluate(inc).Feasible {
					t.Fatalf("%s/%d %s: infeasible", name, seed, g.Name())
				}
				if inc.String() != naive.String() {
					t.Errorf("%s/%d %s: different deletions:\n  %s\n  naive: %s", name, seed, g.Name(), inc, naive)
				}
			}
		}
	}
}

// TestGreedyMultiDerivation: greedy terminates on non-key-preserving
// inputs where single deletions cannot kill whole requests.
func TestGreedyMultiDerivation(t *testing.T) {
	p := fig1Q3Problem(t)
	for _, g := range []*Greedy{{}, {Workers: 4}} {
		sol, err := g.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if rep := p.Evaluate(sol); !rep.Feasible {
			t.Errorf("%s: infeasible", g.Name())
		}
	}
}

// TestGreedyWeightsSteerChoice: heavy preservation weight on one view
// tuple pushes greedy away from deletions that destroy it.
func TestGreedyWeightsSteerChoice(t *testing.T) {
	p := fig1Q4Problem(t)
	// Unweighted: greedy may pick either T1(John,TKDE) (collateral
	// John/TKDE/CUBE) or T2(TKDE,XML,30) (collateral Joe+Tom rows).
	// Make John/TKDE/CUBE enormously heavy: the T2 deletion (collateral
	// weight 2) must win.
	p.SetWeight(view.TupleRef{View: 0, Tuple: tup("John", "TKDE", "CUBE")}, 100)
	sol, err := (&Greedy{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Evaluate(sol)
	if !rep.Feasible {
		t.Fatal("infeasible")
	}
	if rep.SideEffect >= 100 {
		t.Errorf("greedy destroyed the heavy tuple: %+v", rep)
	}
}

// deleteUndoScore is the greedy score computed the way the probe's
// definition reads: delete t, take the refs that died in TupleRef.Key
// order and the surviving requested derivations, and undo the deletion.
func deleteUndoScore(rq *requestRefs, m *view.Maintainer, t int32, baseDerivs int) (score float64, ok bool) {
	died := m.Delete(t)
	killed := 0
	extra := 0.0
	for _, r := range died {
		if rq.requested(r) {
			killed++
		} else {
			extra += rq.weight(r)
		}
	}
	cut := baseDerivs - aliveDerivations(m, rq.delta)
	m.Undelete(t)
	if cut == 0 {
		return 0, false
	}
	return (float64(killed) + float64(cut)/float64(baseDerivs+1)) / (1 + extra), true
}

// TestGreedyProbeMatchesDeleteUndo: the read-only probe's score has the
// bits of the delete-and-undo score for every untaken candidate of every
// round, under random non-integer weights, so summing the collateral in
// any other order than TupleRef.Key's shows up here.
func TestGreedyProbeMatchesDeleteUndo(t *testing.T) {
	var probs []*Problem
	for seed := int64(1); seed <= 4; seed++ {
		probs = append(probs, starProblem(t, seed, 6), chainProblem(t, seed, 6), pivotProblem(t, seed, 6))
	}
	np := warmNPProblem(t)
	probs = append(probs, respecialize(t, np, workload.SampleDeletion(np.Views, 8, 1)))
	compared := 0
	for pi, p := range probs {
		if p.DeltaLen() == 0 {
			continue
		}
		randomWeights(p, int64(pi))
		rq := &p.rq
		m := rq.x.NewMaintainer()
		taken := make([]bool, len(rq.cands))
		var sc probeScratch
		for {
			round := scoringRound{g: &Greedy{}, rq: rq, m: m, cands: rq.cands, taken: taken, baseDerivs: aliveDerivations(m, rq.delta)}
			best, bestScore := -1, -1.0
			for i, c := range rq.cands {
				if taken[i] {
					continue
				}
				got, gotOK := round.probe(&sc, c)
				want, wantOK := deleteUndoScore(rq, m, c, round.baseDerivs)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("problem %d candidate %d: probe %v (%v), delete-and-undo %v (%v)", pi, i, got, gotOK, want, wantOK)
				}
				compared++
				if gotOK && got > bestScore {
					best, bestScore = i, got
				}
			}
			if best == -1 {
				break
			}
			taken[best] = true
			m.Delete(rq.cands[best])
		}
	}
	if compared == 0 {
		t.Fatal("no candidate compared")
	}
}
