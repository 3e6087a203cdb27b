package core

import (
	"context"
	"fmt"
	"slices"

	"delprop/internal/relation"
	"delprop/internal/setcover"
)

// This file implements the companion problem the paper's Tables II–III
// classify: deletion propagation with minimum SOURCE side-effect — find
// the smallest set of source tuples whose removal eliminates every
// requested view tuple, regardless of collateral view damage (Buneman et
// al. 2002; Cong et al. 2012). For key-preserving queries each requested
// view tuple has a single join path, so the problem is a minimum hitting
// set over those paths; for general conjunctive queries every derivation
// of a requested tuple must be hit.

// SourceExact computes a minimum source deletion exactly, for arbitrary
// conjunctive queries. Every derivation of every requested view tuple
// must lose a tuple: a hitting set, solved as Red-Blue Set Cover with one
// blue element per derivation, one set per candidate tuple covering the
// derivations it lies on, and one private red per set counting that
// tuple's deletion. MaxCandidates (default 26) bounds the search.
type SourceExact struct {
	MaxCandidates int
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
	rq := &p.rq
	if len(rq.cands) > max {
		return nil, fmt.Errorf("%w: %d candidates exceeds source-exact bound %d", ErrTooLarge, len(rq.cands), max)
	}
	enc := buildSourceCover(rq)
	sol, err := enc.inst.Exact(ctx, recorder(StatsFrom(ctx)))
	return enc.result(ctx, s.Name(), sol, err)
}

// buildSourceCover encodes the source side-effect problem over the
// candidate tuples as Red-Blue Set Cover (see SourceExact). Blues are
// numbered in ΔV × derivation order and set i is candidate i.
func buildSourceCover(rq *requestRefs) *redBlueEncoding {
	cands := rq.cands
	inst := &setcover.Instance{
		NumRed: len(cands),
		Sets:   make([]setcover.Set, len(cands)),
	}
	enc := &redBlueEncoding{inst: inst, tuples: tupleIDs(rq.x, cands)}
	reds := make([]int, len(cands))
	for i := range cands {
		reds[i] = i
		inst.Sets[i].Reds = reds[i : i+1 : i+1]
	}
	for _, path := range rq.paths() {
		for _, t := range path {
			i, _ := slices.BinarySearch(cands, t)
			inst.Sets[i].Blues = append(inst.Sets[i].Blues, inst.NumBlue)
		}
		inst.NumBlue++
	}
	return enc
}

// paths returns the distinct tuple ids of every derivation of every
// requested view tuple, in ΔV × derivation order.
func (rq *requestRefs) paths() [][]int32 {
	var out [][]int32
	for _, r := range rq.delta {
		lo, hi := rq.x.Derivations(r)
		for i := range hi - lo {
			out = append(out, rq.x.DerivTuples(lo+i))
		}
	}
	return out
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
	if p.DeltaLen() == 1 {
		rq := &p.rq
		paths := rq.paths()
		if len(paths) != 1 {
			return nil, fmt.Errorf("core: unexpected provenance for %s", p.rq.refs[0])
		}
		return &Solution{Deleted: []relation.TupleID{rq.x.Tuple(paths[0][0])}}, nil
	}
	return (&SourceExact{}).Solve(ctx, p)
}
