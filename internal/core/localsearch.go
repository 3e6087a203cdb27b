package core

import (
	"context"
	"slices"

	"delprop/internal/relation"
)

// LocalSearch wraps another solver and improves its solution by hill
// climbing: drop deletions that are unnecessary for feasibility, and try
// single-tuple swaps (replace one deleted tuple with a different tuple
// from an affected request's join path) while the weighted side effect
// strictly decreases. The result is never worse than the inner solver's
// and remains feasible. localSearchPasses bounds the sweeps.
type LocalSearch struct {
	// Inner produces the starting solution (Greedy when nil). Production
	// code always climbs from Greedy; the field exists so a test can
	// substitute a fake inner solver.
	Inner Solver
}

// localSearchPasses bounds LocalSearch's improvement sweeps.
const localSearchPasses = 4

// Name implements Solver.
func (ls *LocalSearch) Name() string {
	inner := ls.inner()
	return "local-search(" + inner.Name() + ")"
}

func (ls *LocalSearch) inner() Solver {
	if ls.Inner != nil {
		return ls.Inner
	}
	return &Greedy{}
}

// Solve implements Solver. Hill climbing is the canonical anytime solver:
// every accepted move keeps the solution feasible and never worse, so an
// interruption mid-climb returns an *Interrupted carrying the current
// solution as incumbent (an interruption inside the inner solver is
// propagated unchanged, incumbent and all).
func (ls *LocalSearch) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	start, err := ls.inner().Solve(ctx, p)
	if err != nil {
		return nil, err
	}
	// current holds the solution's tuple ids, ascending (key order). A
	// tuple no derivation uses has no id; unknown holds those, distinct.
	rq := &p.rq
	var current []int32
	var unknown []relation.TupleID
	for _, id := range start.Deleted {
		if t, ok := rq.x.LookupTuple(id); ok {
			current = append(current, t)
		} else if !slices.ContainsFunc(unknown, id.Equal) {
			unknown = append(unknown, id)
		}
	}
	slices.Sort(current)
	current = slices.Compact(current)
	toSolution := func() *Solution {
		sol := &Solution{Deleted: append(tupleIDs(rq.x, current), unknown...)}
		if len(unknown) > 0 {
			slices.SortFunc(sol.Deleted, relation.TupleID.CompareKey)
		}
		return sol
	}
	score := func() (float64, bool) {
		rep := p.evaluate(current, len(current))
		return rep.SideEffect, rep.Feasible
	}
	bestCost, feasible := score()
	if !feasible {
		// Inner solver produced an infeasible solution (e.g. a balanced
		// variant); return it untouched.
		return start, nil
	}
	st := StatsFrom(ctx)
	for range localSearchPasses {
		// Each climbing pass is one restart of the sweep.
		st.Restart()
		improved := false
		// Drop moves, in key order.
		for _, id := range toSolution().Deleted {
			st.Checkpoint()
			if err := checkCtx(ctx, ls.Name(), toSolution()); err != nil {
				return nil, err
			}
			st.AddNodes(1)
			t, ok := rq.x.LookupTuple(id)
			if !ok {
				// Dropping a tuple with no id never changes the score.
				unknown = slices.DeleteFunc(unknown, id.Equal)
				continue
			}
			current = without(current, t)
			if c, ok := score(); ok && c <= bestCost {
				if c < bestCost {
					improved = true
					st.Incumbent(c, len(current)+len(unknown))
				}
				bestCost = c
				continue
			}
			current = with(current, t)
		}
		// Swap moves: replace one deletion with one candidate.
		for _, t := range slices.Clone(current) {
			st.Checkpoint()
			if err := checkCtx(ctx, ls.Name(), toSolution()); err != nil {
				return nil, err
			}
			for _, alt := range rq.cands {
				if _, in := slices.BinarySearch(current, alt); in {
					continue
				}
				st.AddNodes(1)
				current = with(without(current, t), alt)
				if c, ok := score(); ok && c < bestCost {
					bestCost = c
					improved = true
					st.Incumbent(c, len(current))
					break
				}
				current = with(without(current, alt), t)
			}
		}
		if !improved {
			break
		}
	}
	return toSolution(), nil
}

// without removes t from the ascending set; with inserts it.
func without(set []int32, t int32) []int32 {
	i, _ := slices.BinarySearch(set, t)
	return slices.Delete(set, i, i+1)
}

func with(set []int32, t int32) []int32 {
	i, _ := slices.BinarySearch(set, t)
	return slices.Insert(set, i, t)
}
