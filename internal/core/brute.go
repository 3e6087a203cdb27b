package core

import (
	"context"
	"fmt"
)

// bruteForceMaxCandidates bounds BruteForce's mask scan: 2^22 masks take
// tens of seconds.
const bruteForceMaxCandidates = 22

// BruteForce enumerates every subset of the candidate tuples and returns a
// minimum-side-effect feasible solution. Exponential; it refuses instances
// with more than bruteForceMaxCandidates candidates. It is the
// ground-truth optimum used by the approximation-ratio experiments.
type BruteForce struct {
	// Balanced switches the objective to the balanced version of Section
	// III (no feasibility constraint; minimize bad-remaining + side
	// effect).
	Balanced bool
}

// Name implements Solver.
func (b *BruteForce) Name() string {
	if b.Balanced {
		return "brute-force-balanced"
	}
	return "brute-force"
}

// Solve implements Solver. The mask scan is an anytime search: on context
// interruption the returned *Interrupted carries the best feasible subset
// found so far (when any).
func (b *BruteForce) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	rq := &p.rq
	cands := rq.cands
	if len(cands) > bruteForceMaxCandidates {
		return nil, fmt.Errorf("%w: %d candidate tuples exceeds brute-force bound %d", ErrTooLarge, len(cands), bruteForceMaxCandidates)
	}
	st := StatsFrom(ctx)
	var best *Solution
	bestCost := 0.0
	n := len(cands)
	scanned := 0
	for mask := 0; mask < 1<<n; mask++ {
		if mask%checkEvery == 0 {
			st.Checkpoint()
			st.AddNodes(int64(mask - scanned))
			scanned = mask
			if err := checkCtx(ctx, b.Name(), best); err != nil {
				return nil, err
			}
		}
		var del []int32
		for i, cand := range cands {
			if mask&(1<<i) != 0 {
				del = append(del, cand)
			}
		}
		rep := p.evaluate(del, len(del))
		var cost float64
		if b.Balanced {
			cost = rep.Balanced
		} else {
			if !rep.Feasible {
				continue
			}
			cost = rep.SideEffect
		}
		if best == nil || cost < bestCost || (cost == bestCost && len(del) < len(best.Deleted)) {
			best = &Solution{Deleted: tupleIDs(rq.x, del)}
			bestCost = cost
			st.Incumbent(cost, len(del))
		}
	}
	st.AddNodes(int64(1<<n - scanned))
	if best == nil {
		// With key-preserving queries deleting all candidates is always
		// feasible, so this only happens when some requested view tuple
		// has a derivation disjoint from the candidates — impossible — or
		// when ΔV is empty and mask 0 was feasible. Defensive:
		return nil, fmt.Errorf("core: brute force found no feasible solution")
	}
	// A completed scan is exact: the objective is its own lower bound
	// (observed quality ratio 1).
	st.SetObjective(bestCost)
	st.ObserveLowerBound(bestCost)
	return best, nil
}
