package core

import (
	"context"
	"sort"

	"delprop/internal/relation"
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
	// restrictCandidates, if non-nil, limits deletable tuples (used by
	// LowDegTree).
	restrictCandidates map[string]bool
	// restrictPreserved, if non-nil, limits which preserved view tuples
	// contribute capacity (LowDegTree prunes wide ones).
	restrictPreserved map[string]bool
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
	lp := buildDualLP(p, pd.restrictCandidates, pd.restrictPreserved)
	load := make(map[string]float64, len(lp.cands))
	saturated := make(map[string]bool)
	var pickOrder []string
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
		// Already hit?
		hit := false
		for _, tk := range r.path {
			if saturated[tk] {
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		totalDual += lp.raise(r.path, load)
		for _, tk := range r.path {
			if !saturated[tk] && load[tk] >= lp.capacity[tk]-saturationEps {
				saturated[tk] = true
				pickOrder = append(pickOrder, tk)
			}
		}
	}
	// The raised duals are feasible for the aggregated LP (constraints
	// (6)–(10)), so Σ v_r lower-bounds the optimum — but only on the
	// unrestricted problem: LowDegTree's candidate/preserved restrictions
	// change the LP, so the certificate is withheld there.
	if pd.restrictCandidates == nil && pd.restrictPreserved == nil {
		st.ObserveLowerBound(totalDual)
	}

	// Reverse-delete prune: drop saturated tuples not needed to keep every
	// requested view tuple covered.
	chosen := make(map[string]bool, len(saturated))
	for k := range saturated {
		chosen[k] = true
	}
	feasibleWithout := func(drop string) bool {
		for _, r := range lp.reqs {
			covered := false
			for _, tk := range r.path {
				if tk != drop && chosen[tk] {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	for i := len(pickOrder) - 1; i >= 0; i-- {
		tk := pickOrder[i]
		if feasibleWithout(tk) {
			delete(chosen, tk)
		}
	}

	byKey := make(map[string]relation.TupleID, len(lp.cands))
	for _, id := range lp.cands {
		byKey[id.Key()] = id
	}
	sol := &Solution{}
	keys := make([]string, 0, len(chosen))
	for k := range chosen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sol.Deleted = append(sol.Deleted, byKey[k])
	}
	return sol, nil
}

// dualLP is the aggregated LP of Section IV.C that PrimalDual and
// DualBound raise duals on: each candidate tuple's capacity C_t (see
// PrimalDual), and each requested view tuple's join path restricted to
// the candidates, with the requests ordered by path length and then by
// reference key.
type dualLP struct {
	cands    []relation.TupleID
	capacity map[string]float64
	reqs     []dualRequest
}

// dualRequest is one requested view tuple's packing constraint.
type dualRequest struct {
	key  string   // view.TupleRef key
	path []string // sorted candidate tuple keys on the join path
}

// buildDualLP builds the LP. restrictCandidates, if non-nil, limits the
// deletable tuples; restrictPreserved, if non-nil, limits which preserved
// view tuples contribute capacity (LowDegTree's two restrictions).
// Capacities accumulate in PreservedRefs order, so the floating-point
// sums are reproducible.
func buildDualLP(p *Problem, restrictCandidates, restrictPreserved map[string]bool) *dualLP {
	lp := &dualLP{capacity: make(map[string]float64)}
	candSet := make(map[string]bool)
	for _, id := range p.CandidateTuples() {
		if restrictCandidates == nil || restrictCandidates[id.Key()] {
			lp.cands = append(lp.cands, id)
			candSet[id.Key()] = true
		}
	}
	for _, ref := range p.PreservedRefs() {
		if restrictPreserved != nil && !restrictPreserved[ref.Key()] {
			continue
		}
		ans, _ := p.Answer(ref)
		if len(ans.Derivations) == 0 {
			continue
		}
		path := ans.Derivations[0].TupleSet()
		share := p.Weight(ref) / float64(len(path))
		for tk := range path {
			if candSet[tk] {
				lp.capacity[tk] += share
			}
		}
	}
	for _, ref := range p.Delta.Refs() {
		ans, ok := p.Answer(ref)
		if !ok || len(ans.Derivations) == 0 {
			continue
		}
		var path []string
		for tk := range ans.Derivations[0].TupleSet() {
			if candSet[tk] {
				path = append(path, tk)
			}
		}
		sort.Strings(path)
		lp.reqs = append(lp.reqs, dualRequest{key: ref.Key(), path: path})
	}
	// Deterministic processing order; on forest instances order by path
	// length then key, approximating the paper's depth ordering.
	sort.Slice(lp.reqs, func(i, j int) bool {
		if len(lp.reqs[i].path) != len(lp.reqs[j].path) {
			return len(lp.reqs[i].path) < len(lp.reqs[j].path)
		}
		return lp.reqs[i].key < lp.reqs[j].key
	})
	return lp
}

// raise raises one request's dual by the minimum slack along its path,
// adds it to the load of every tuple on the path, and returns it.
func (lp *dualLP) raise(path []string, load map[string]float64) float64 {
	delta := -1.0
	for _, tk := range path {
		slack := lp.capacity[tk] - load[tk]
		if delta < 0 || slack < delta {
			delta = slack
		}
	}
	if delta < 0 {
		delta = 0
	}
	for _, tk := range path {
		load[tk] += delta
	}
	return delta
}
