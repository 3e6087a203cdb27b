package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"delprop/internal/relation"
)

// LowDegTree implements Algorithm 2 (LowDegTreeVSE) for a fixed degree cap
// τ: candidate tuples joined in more than τ preserved view tuples are
// barred from deletion, preserved view tuples wider than √‖V‖ base tuples
// are pruned from the capacity computation (Claim 2 bounds how many such
// tuples exist), and the primal-dual algorithm runs on what remains.
type LowDegTree struct {
	// Tau is the degree cap τ.
	Tau int
}

// Name implements Solver.
func (l *LowDegTree) Name() string { return fmt.Sprintf("low-deg-tree(τ=%d)", l.Tau) }

// Solve implements Solver. It returns ErrInfeasibleRestriction when the
// cap removes every deletable tuple of some requested view tuple — the
// "return D" branch of Algorithm 2, which the τ-sweep of Algorithm 3
// treats as "skip this τ".
func (l *LowDegTree) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := requireKeyPreserving(p, l.Name()); err != nil {
		return nil, err
	}
	allowed := make(map[string]bool)
	for _, id := range p.CandidateTuples() {
		if preservedDegree(p, id) <= l.Tau {
			allowed[id.Key()] = true
		}
	}
	// Prune wide preserved view tuples: arity(r) > √‖V‖ (arity here is the
	// number of base tuples on r's join path, as in Claim 2).
	width := math.Sqrt(float64(p.TotalViewSize()))
	keepPreserved := make(map[string]bool)
	for _, ref := range p.PreservedRefs() {
		ans, _ := p.Answer(ref)
		k := 0
		if len(ans.Derivations) > 0 {
			k = len(ans.Derivations[0].TupleSet())
		}
		if float64(k) <= width {
			keepPreserved[ref.Key()] = true
		}
	}
	pd := &PrimalDual{
		restrictCandidates: allowed,
		restrictPreserved:  keepPreserved,
	}
	return pd.Solve(ctx, p)
}

// preservedDegree is a candidate tuple's degree: the number of preserved
// view tuples it is joined in.
func preservedDegree(p *Problem, id relation.TupleID) int {
	deg := 0
	for _, occ := range p.Inverted().Occurrences(id) {
		if !p.Delta.Contains(occ.Ref) {
			deg++
		}
	}
	return deg
}

// LowDegTreeTwo implements Algorithm 3 (LowDegTreeVSETwo): sweep the
// unknown τ̂ from 1 to |R|, run LowDegTree for each value, and keep the
// solution with the smallest true weighted side-effect. Theorem 4: on
// forest instances the result is a 2√‖V‖-approximation.
type LowDegTreeTwo struct{}

// Name implements Solver.
func (l *LowDegTreeTwo) Name() string { return "low-deg-tree-two" }

// Solve implements Solver. The sweep visits only the distinct
// preserved-degrees of the candidate tuples: LowDegTree's output depends
// solely on which candidates the cap admits, and that set only changes at
// those values, so this is equivalent to the paper's τ = 1..|R| loop.
func (l *LowDegTreeTwo) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if err := requireKeyPreserving(p, l.Name()); err != nil {
		return nil, err
	}
	degSet := map[int]bool{0: true}
	for _, id := range p.CandidateTuples() {
		degSet[preservedDegree(p, id)] = true
	}
	taus := make([]int, 0, len(degSet))
	for d := range degSet {
		taus = append(taus, d)
	}
	sort.Ints(taus)
	st := StatsFrom(ctx)
	var best *Solution
	bestCost := math.Inf(1)
	for _, tau := range taus {
		// The sweep is anytime across τ values: keep the best feasible
		// solution seen so far as the incumbent. Each τ value is one
		// restart of the inner primal-dual run.
		st.Restart()
		st.Checkpoint()
		if err := checkCtx(ctx, l.Name(), best); err != nil {
			return nil, err
		}
		inner := &LowDegTree{Tau: tau}
		sol, err := inner.Solve(ctx, p)
		if err != nil {
			if errors.Is(err, ErrInfeasibleRestriction) {
				continue
			}
			if InterruptCause(err) != "" {
				return nil, interruption(ctx, l.Name(), best)
			}
			return nil, err
		}
		rep := p.Evaluate(sol)
		if !rep.Feasible {
			continue
		}
		if rep.SideEffect < bestCost {
			bestCost = rep.SideEffect
			best = sol
			st.Incumbent(bestCost, len(sol.Deleted))
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: low-deg sweep found no feasible solution")
	}
	return best, nil
}
