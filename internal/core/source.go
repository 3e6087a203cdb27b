package core

import (
	"context"
	"fmt"

	"delprop/internal/relation"
	"delprop/internal/setcover"
)

// This file implements the companion problem the paper's Tables II–III
// classify: deletion propagation with minimum SOURCE side-effect — find
// the smallest (or lightest) set of source tuples whose removal eliminates
// every requested view tuple, regardless of collateral view damage
// (Buneman et al. 2002; Cong et al. 2012). For key-preserving queries each
// requested view tuple has a single join path, so the problem is a minimum
// hitting set over those paths; for general conjunctive queries every
// derivation of a requested tuple must be hit.

// SourceWeights optionally assigns deletion costs to source tuples (keyed
// by TupleID.Key); absent keys cost 1.
type SourceWeights map[string]float64

// weightOf returns the deletion cost of a tuple.
func (w SourceWeights) weightOf(id relation.TupleID) float64 {
	if w == nil {
		return 1
	}
	if v, ok := w[id.Key()]; ok {
		return v
	}
	return 1
}

// SourceSideEffect evaluates the source-side-effect objective of a
// solution: the total deletion cost, plus feasibility.
func (p *Problem) SourceSideEffect(sol *Solution, weights SourceWeights) (cost float64, feasible bool) {
	for _, id := range sol.Deleted {
		cost += weights.weightOf(id)
	}
	return cost, p.Evaluate(sol).Feasible
}

// SourceExact computes a minimum-cost source deletion exactly, for
// arbitrary conjunctive queries. Every derivation of every requested view
// tuple must lose a tuple: a weighted hitting set, solved as Red-Blue Set
// Cover with one blue element per derivation, one set per candidate tuple
// covering the derivations it lies on, and one private red per set
// weighing that tuple's deletion cost. MaxCandidates (default 26) bounds
// the search.
type SourceExact struct {
	MaxCandidates int
	Weights       SourceWeights
}

// Name implements Solver.
func (s *SourceExact) Name() string { return "source-exact" }

// Solve implements Solver. The setcover branch and bound is anytime: on
// context interruption the *Interrupted carries the cheapest hitting set
// found so far, when one exists.
func (s *SourceExact) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	max := s.MaxCandidates
	if max == 0 {
		max = 26
	}
	cands := p.CandidateTuples()
	if len(cands) > max {
		return nil, fmt.Errorf("%w: %d candidates exceeds source-exact bound %d", ErrTooLarge, len(cands), max)
	}
	enc := buildSourceCover(p, cands, s.Weights)
	sol, err := enc.inst.Exact(ctx, recorder(StatsFrom(ctx)))
	return enc.result(ctx, s.Name(), sol, err)
}

// buildSourceCover encodes the source side-effect problem over the
// candidate tuples as Red-Blue Set Cover (see SourceExact). Blues are
// numbered in Delta.Refs() × derivation order and set i is cands[i].
func buildSourceCover(p *Problem, cands []relation.TupleID, weights SourceWeights) *redBlueEncoding {
	inst := &setcover.Instance{
		NumRed:     len(cands),
		RedWeights: make([]float64, len(cands)),
		Sets:       make([]setcover.Set, len(cands)),
	}
	idx := make(map[string]int, len(cands))
	reds := make([]int, len(cands))
	for i, id := range cands {
		idx[id.Key()] = i
		inst.RedWeights[i] = weights.weightOf(id)
		reds[i] = i
		inst.Sets[i].Reds = reds[i : i+1 : i+1]
	}
	for _, ref := range p.Delta.Refs() {
		ans, ok := p.Answer(ref)
		if !ok {
			continue
		}
		for _, d := range ans.Derivations {
			for k := range d.TupleSet() {
				set := &inst.Sets[idx[k]]
				set.Blues = append(set.Blues, inst.NumBlue)
			}
			inst.NumBlue++
		}
	}
	return &redBlueEncoding{inst: inst, tuples: cands}
}

// SourceGreedy is the classic ln(n)-approximation for the hitting set:
// repeatedly delete the tuple hitting the most not-yet-hit derivations per
// unit cost.
type SourceGreedy struct {
	Weights SourceWeights
}

// Name implements Solver.
func (s *SourceGreedy) Name() string { return "source-greedy" }

// Solve implements Solver.
func (s *SourceGreedy) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	cands := p.CandidateTuples()
	type path struct {
		tuples map[string]bool
		hit    bool
	}
	var paths []*path
	for _, ref := range p.Delta.Refs() {
		ans, ok := p.Answer(ref)
		if !ok {
			continue
		}
		for _, d := range ans.Derivations {
			pt := &path{tuples: make(map[string]bool)}
			for k := range d.TupleSet() {
				pt.tuples[k] = true
			}
			paths = append(paths, pt)
		}
	}
	st := StatsFrom(ctx)
	remaining := len(paths)
	sol := &Solution{}
	for remaining > 0 {
		st.Checkpoint()
		if err := checkCtx(ctx, s.Name(), nil); err != nil {
			return nil, err
		}
		best, bestScore := -1, -1.0
		for i, id := range cands {
			st.AddNodes(1)
			hits := 0
			for _, pt := range paths {
				if !pt.hit && pt.tuples[id.Key()] {
					hits++
				}
			}
			if hits == 0 {
				continue
			}
			score := float64(hits) / s.Weights.weightOf(id)
			if score > bestScore {
				bestScore, best = score, i
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("core: source-greedy stuck with %d derivations unhit", remaining)
		}
		id := cands[best]
		sol.Deleted = append(sol.Deleted, id)
		for _, pt := range paths {
			if !pt.hit && pt.tuples[id.Key()] {
				pt.hit = true
				remaining--
			}
		}
	}
	return sol, nil
}

// SourceSingleQueryExact is the named baseline for the source side-effect
// problem with one key-preserving query and unit weights (Cong et al.).
// Key preservation pins one join path per requested view tuple. With a
// single requested view tuple any one path tuple is optimal, and the
// solver deletes the one with the smallest key in time linear in the
// path. With several, the problem is a minimum hitting set over the paths
// and the solver runs SourceExact, whose search is exponential in the
// worst case.
type SourceSingleQueryExact struct{}

// Name implements Solver.
func (s *SourceSingleQueryExact) Name() string { return "source-single-query" }

// Solve implements Solver.
func (s *SourceSingleQueryExact) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if len(p.Queries) != 1 {
		return nil, fmt.Errorf("core: source-single-query requires one query, got %d", len(p.Queries))
	}
	if err := requireKeyPreserving(p, s.Name()); err != nil {
		return nil, err
	}
	if p.Delta.Len() == 1 {
		ref := p.Delta.Refs()[0]
		ans, ok := p.Answer(ref)
		if !ok || len(ans.Derivations) != 1 {
			return nil, fmt.Errorf("core: unexpected provenance for %s", ref)
		}
		return &Solution{Deleted: pathTuples(ans.Derivations[0])[:1]}, nil
	}
	return (&SourceExact{}).Solve(ctx, p)
}
