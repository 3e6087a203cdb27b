package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"delprop/internal/view"
)

// PrimalDual implements Algorithm 1 (PrimeDualVSE): the primal-dual
// l-approximation for the forest cases, after Garg–Vazirani–Yannakakis
// multicut on trees.
//
// The LP view (Section IV.C): a dual variable v_r is raised for every
// requested view tuple r; every preserved view tuple s absorbs at most
// w_s / k_s of dual growth (constraint (7), k_s = number of base tuples on
// s's join path), so each base tuple t has a capacity
//
//	C_t = Σ_{s preserved, t ∈ s} w_s / k_s.
//
// Raising the duals eagerly to their caps (the algorithm's "necessary
// increase of the intersecting view tuples to be preserved") turns
// constraint (8) into the pure packing constraint Σ_{r ∋ t} v_r ≤ C_t.
// Each requested view tuple's dual is then raised until some tuple on its
// path saturates; saturated tuples are deleted, and a reverse-delete pass
// prunes deletions not needed for feasibility. Complementary slackness
// yields the factor-l guarantee on forest instances.
//
// Requires key-preserving queries. Order: requested view tuples are
// processed in increasing depth of their path's deepest tuple when a
// forest structure is detected (the paper's LCA order); otherwise in
// deterministic reference order.
type PrimalDual struct {
	// lowDeg, if non-nil, applies LowDegTree's degree cap and width
	// pruning while the LP is built.
	lowDeg *LowDegTree
}

// Name implements Solver.
func (pd *PrimalDual) Name() string { return "primal-dual" }

const saturationEps = 1e-9

// Solve implements Solver.
func (pd *PrimalDual) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	st := StatsFrom(ctx)
	st.Checkpoint()
	if err := checkCtx(ctx, pd.Name(), nil); err != nil {
		return nil, err
	}
	if err := requireKeyPreserving(p, pd.Name()); err != nil {
		return nil, err
	}
	rq := &p.rq
	lp := buildDualLP(rq, pd.lowDeg)
	load := make([]float64, len(lp.capacity))
	saturated := make([]bool, len(lp.capacity))
	var pickOrder []int32
	totalDual := 0.0
	for ri, r := range lp.reqs {
		if ri%checkEvery == 0 {
			st.Checkpoint()
			if err := checkCtx(ctx, pd.Name(), nil); err != nil {
				return nil, err
			}
		}
		// Each dual raise is one node of the primal-dual "search".
		st.AddNodes(1)
		if len(r.path) == 0 {
			// No deletable tuple can kill this request; infeasible under
			// the restriction.
			return nil, ErrInfeasibleRestriction
		}
		if slices.ContainsFunc(r.path, func(t int32) bool { return saturated[t] }) {
			continue // already hit
		}
		totalDual += lp.raise(r.path, load)
		for _, t := range r.path {
			if !saturated[t] && load[t] >= lp.capacity[t]-saturationEps {
				saturated[t] = true
				pickOrder = append(pickOrder, t)
			}
		}
	}
	// The raised duals are feasible for the aggregated LP (constraints
	// (6)–(10)), so Σ v_r lower-bounds the optimum — but only on the
	// unrestricted problem: LowDegTree's cap and pruning change the LP,
	// so the certificate is withheld there.
	if pd.lowDeg == nil {
		st.ObserveLowerBound(totalDual)
	}

	// Reverse-delete prune: drop saturated tuples not needed to keep every
	// requested view tuple covered.
	chosen := saturated
	feasibleWithout := func(drop int32) bool {
		for _, r := range lp.reqs {
			if !slices.ContainsFunc(r.path, func(t int32) bool { return t != drop && chosen[t] }) {
				return false
			}
		}
		return true
	}
	for i := len(pickOrder) - 1; i >= 0; i-- {
		if t := pickOrder[i]; feasibleWithout(t) {
			chosen[t] = false
		}
	}
	pickOrder = slices.DeleteFunc(pickOrder, func(t int32) bool { return !chosen[t] })
	slices.Sort(pickOrder)
	return &Solution{Deleted: tupleIDs(rq.x, pickOrder)}, nil
}

// dualLP is the aggregated LP of Section IV.C that PrimalDual and
// DualBound raise duals on: each candidate tuple's capacity C_t (see
// PrimalDual), and each requested view tuple's join path restricted to
// the candidates, with the requests ordered by path length and then by
// reference key.
type dualLP struct {
	capacity []float64 // by tuple id; filled for candidates only
	reqs     []dualRequest
}

// dualRequest is one requested view tuple's packing constraint.
type dualRequest struct {
	ref  int32
	path []int32 // candidate tuple ids on the join path, ascending
}

// buildDualLP builds the LP. With lowDeg set, candidates joined in more
// than τ preserved view tuples are not deletable, and preserved view
// tuples wider than √‖V‖ base tuples contribute no capacity
// (LowDegTree's two restrictions). A candidate's capacity sums its
// preserved occurrences' shares in ascending ref id order, so the
// floating-point sums are reproducible, and the work follows ΔV's
// candidates, not ‖V‖.
func buildDualLP(rq *requestRefs, lowDeg *LowDegTree) *dualLP {
	x := rq.x
	lp := &dualLP{capacity: make([]float64, x.NumTuples())}
	width := math.Sqrt(float64(x.NumRefs()))
	var barred []bool
	if lowDeg != nil {
		barred = make([]bool, x.NumTuples())
	}
	var occ []view.Occurrence
	for _, t := range rq.cands {
		occ = x.AppendOccurrences(occ[:0], t)
		for _, o := range occ {
			if rq.requested(o.Ref) {
				continue
			}
			// Key-preserving: the ref's one derivation is its join path.
			lo, _ := x.Derivations(o.Ref)
			k := len(x.DerivTuples(lo))
			if lowDeg == nil || float64(k) <= width {
				lp.capacity[t] += rq.weight(o.Ref) / float64(k)
			}
		}
		if lowDeg != nil && preservedDegree(rq, t) > lowDeg.Tau {
			barred[t] = true
		}
	}
	for _, r := range rq.delta {
		lo, _ := x.Derivations(r)
		path := x.DerivTuples(lo)
		if lowDeg != nil {
			path = slices.DeleteFunc(slices.Clone(path), func(t int32) bool { return barred[t] })
		}
		lp.reqs = append(lp.reqs, dualRequest{ref: r, path: path})
	}
	// Deterministic processing order; on forest instances order by path
	// length then key, approximating the paper's depth ordering.
	slices.SortFunc(lp.reqs, func(a, b dualRequest) int {
		if c := cmp.Compare(len(a.path), len(b.path)); c != 0 {
			return c
		}
		return cmp.Compare(x.RefRank(a.ref), x.RefRank(b.ref))
	})
	return lp
}

// raise raises one request's dual by the minimum slack along its path,
// adds it to the load of every tuple on the path, and returns it.
func (lp *dualLP) raise(path []int32, load []float64) float64 {
	delta := -1.0
	for _, t := range path {
		slack := lp.capacity[t] - load[t]
		if delta < 0 || slack < delta {
			delta = slack
		}
	}
	if delta < 0 {
		delta = 0
	}
	for _, t := range path {
		load[t] += delta
	}
	return delta
}
