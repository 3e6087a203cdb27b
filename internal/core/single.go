package core

import (
	"context"
	"fmt"

	"delprop/internal/relation"
)

// SingleTupleExact is the polynomial exact algorithm for the
// single-deletion case studied by Cong et al. and Kimelfeld et al. (the
// regime where key-preserving queries are tractable, Section III): when
// ΔV is a single view tuple with a unique derivation, any feasible solution
// deletes at least one tuple of that join path, and deleting more tuples
// never lowers the side effect — so the optimum is the single path tuple
// with minimum collateral weight.
type SingleTupleExact struct{}

// Name implements Solver.
func (s *SingleTupleExact) Name() string { return "single-tuple-exact" }

// Solve implements Solver. It requires |ΔV| = 1 and a key-preserving
// problem.
func (s *SingleTupleExact) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if p.DeltaLen() != 1 {
		return nil, fmt.Errorf("core: single-tuple-exact requires exactly one requested deletion, got %d", p.DeltaLen())
	}
	if err := requireKeyPreserving(p, s.Name()); err != nil {
		return nil, err
	}
	ref := p.rq.refs[0]
	x := p.Index()
	lo, hi := x.Derivations(p.rq.delta[0])
	if hi-lo != 1 {
		return nil, fmt.Errorf("core: requested view tuple %s has %d derivations, want 1", ref, hi-lo)
	}
	st := StatsFrom(ctx)
	var best *Solution
	bestCost := 0.0
	// The path's tuples in key order, so that a pick among equal-cost
	// tuples (and the incumbent trail leading to it) is canonical.
	for _, t := range x.DerivTuples(lo) {
		st.Checkpoint()
		if err := checkCtx(ctx, s.Name(), best); err != nil {
			return nil, err
		}
		st.AddNodes(1)
		rep := p.evaluate([]int32{t}, 1)
		if !rep.Feasible {
			// Cannot happen for a key-preserving single derivation;
			// defensive.
			continue
		}
		if best == nil || rep.SideEffect < bestCost {
			best, bestCost = &Solution{Deleted: []relation.TupleID{x.Tuple(t)}}, rep.SideEffect
			st.Incumbent(bestCost, 1)
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible single-tuple deletion for %s", ref)
	}
	return best, nil
}
