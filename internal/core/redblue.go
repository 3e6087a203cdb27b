package core

import (
	"context"
	"fmt"

	"delprop/internal/relation"
	"delprop/internal/setcover"
	"delprop/internal/view"
)

// redBlueEncoding is a Red-Blue Set Cover instance with one set per
// candidate base tuple. buildRedBlue builds the Claim 1 reduction from
// view side-effect: one blue element per requested view tuple, one
// weighted red element per preserved view tuple, and each set containing
// exactly the view tuples whose (unique, key-preserving) join path goes
// through its tuple. buildSourceCover builds the source side-effect one.
type redBlueEncoding struct {
	inst   *setcover.Instance
	tuples []relation.TupleID // set index -> base tuple
}

// buildRedBlue constructs the encoding. Preserved view tuples that no
// candidate touches are omitted (they can never be collateral damage).
func buildRedBlue(p *Problem) (*redBlueEncoding, error) {
	if err := requireKeyPreserving(p, "red-blue"); err != nil {
		return nil, err
	}
	// elem[r] is ref r's blue index (requested) or red index (preserved,
	// numbered in (view, answer) order).
	rq := &p.rq
	elem := make([]int, rq.x.NumRefs())
	for i, r := range rq.delta {
		elem[r] = i
	}
	var redWeights []float64
	for r := range int32(len(elem)) {
		if !rq.requested(r) {
			elem[r] = len(redWeights)
			redWeights = append(redWeights, rq.weight(r))
		}
	}
	enc := &redBlueEncoding{inst: &setcover.Instance{
		NumRed:     len(redWeights),
		NumBlue:    len(rq.delta),
		RedWeights: redWeights,
	}}
	enc.tuples = tupleIDs(rq.x, rq.cands)
	var occ []view.Occurrence
	for _, t := range rq.cands {
		var s setcover.Set
		occ = rq.x.AppendOccurrences(occ[:0], t)
		for _, o := range occ {
			if rq.requested(o.Ref) {
				s.Blues = append(s.Blues, elem[o.Ref])
			} else {
				s.Reds = append(s.Reds, elem[o.Ref])
			}
		}
		enc.inst.Sets = append(enc.inst.Sets, s)
	}
	if err := enc.inst.Validate(); err != nil {
		return nil, fmt.Errorf("core: red-blue encoding invalid: %w", err)
	}
	return enc, nil
}

// decode maps a set-cover solution back to a source deletion.
func (enc *redBlueEncoding) decode(sol setcover.Solution) *Solution {
	out := &Solution{}
	for _, si := range sol.Chosen {
		out.Deleted = append(out.Deleted, enc.tuples[si])
	}
	return out
}

// result maps the outcome of a setcover search on the encoding back to a
// source deletion: an interrupted search becomes the typed *Interrupted
// carrying the decoded incumbent (when it had one), any other failure is
// wrapped with the solver's name.
func (enc *redBlueEncoding) result(ctx context.Context, solver string, sol setcover.Solution, err error) (*Solution, error) {
	if err == nil {
		return enc.decode(sol), nil
	}
	if InterruptCause(err) == "" {
		return nil, fmt.Errorf("core: %s: %w", solver, err)
	}
	var incumbent *Solution
	if len(sol.Chosen) > 0 {
		incumbent = enc.decode(sol)
	}
	return nil, interruption(ctx, solver, incumbent)
}

// RedBlue is the general-case approximation of Claim 1: reduce to Red-Blue
// Set Cover and solve with the ratio-greedy low-degree sweep, giving the
// O(2√(l·‖V‖·log‖ΔV‖)) guarantee. Requires key-preserving queries.
type RedBlue struct{}

// Name implements Solver.
func (r *RedBlue) Name() string { return "red-blue" }

// Solve implements Solver. The reduction and sweep are polynomial, so a
// single checkpoint before each phase suffices.
func (r *RedBlue) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, r.Name(), nil); err != nil {
		return nil, err
	}
	enc, err := buildRedBlue(p)
	if err != nil {
		return nil, err
	}
	if enc.inst.NumBlue == 0 {
		return &Solution{}, nil
	}
	st.Checkpoint()
	if err := checkCtx(ctx, r.Name(), nil); err != nil {
		return nil, err
	}
	sol, err := enc.inst.LowDegSweep()
	if err != nil {
		return nil, fmt.Errorf("core: red-blue sweep: %w", err)
	}
	// The sweep probes every set once per distinct red degree; that probe
	// count is its "nodes expanded" equivalent.
	st.AddNodes(int64(len(enc.inst.Sets)))
	return enc.decode(sol), nil
}

// RedBlueExact solves the Claim 1 encoding exactly by branch and bound. It
// is exact for key-preserving problems and much faster than BruteForce,
// serving as the reference optimum in larger ratio experiments.
type RedBlueExact struct{}

// Name implements Solver.
func (r *RedBlueExact) Name() string { return "red-blue-exact" }

// Solve implements Solver. The branch and bound is anytime: on context
// interruption the *Interrupted error carries the best cover found so far,
// decoded back to a source deletion.
func (r *RedBlueExact) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, r.Name(), nil); err != nil {
		return nil, err
	}
	enc, err := buildRedBlue(p)
	if err != nil {
		return nil, err
	}
	sol, err := enc.inst.Exact(ctx, recorder(st))
	out, err := enc.result(ctx, r.Name(), sol, err)
	if err != nil {
		return nil, err
	}
	// The completed branch and bound is exact (Theorem 1 preserves cost),
	// so the achieved side effect doubles as the proven optimum.
	opt := p.Evaluate(out).SideEffect
	st.SetObjective(opt)
	st.ObserveLowerBound(opt)
	return out, nil
}

// BalancedRedBlue is the Lemma 1 approximation for balanced deletion
// propagation: reduce to Positive-Negative Partial Set Cover (positives =
// requested view tuples, negatives = preserved view tuples, one set per
// candidate tuple) and solve via Miettinen's reduction, giving the
// 2√(l·(‖V‖+‖ΔV‖)·log‖ΔV‖) guarantee. Requires key-preserving queries.
type BalancedRedBlue struct {
	// Exact switches to the exact branch-and-bound on the reduction
	// (reference optimum for the balanced objective).
	Exact bool
}

// Name implements Solver.
func (b *BalancedRedBlue) Name() string {
	if b.Exact {
		return "balanced-exact"
	}
	return "balanced-red-blue"
}

// Solve implements Solver. The exact variant is anytime like
// RedBlueExact; the approximation is polynomial.
func (b *BalancedRedBlue) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, b.Name(), nil); err != nil {
		return nil, err
	}
	if err := requireKeyPreserving(p, b.Name()); err != nil {
		return nil, err
	}
	enc, err := buildRedBlue(p)
	if err != nil {
		return nil, err
	}
	// The PNPSC instance is the Claim 1 encoding read as Lemma 1's: the
	// blues are the positives and the reds the negatives.
	pn := &setcover.PNPSCInstance{Inst: enc.inst}
	var sol setcover.Solution
	if b.Exact {
		sol, err = pn.Exact(ctx, recorder(st))
	} else {
		sol, err = pn.Solve()
		st.AddNodes(int64(len(enc.inst.Sets)))
	}
	return enc.result(ctx, b.Name(), sol, err)
}
