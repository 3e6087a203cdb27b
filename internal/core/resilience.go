package core

import (
	"context"
	"fmt"

	"delprop/internal/cq"
	"delprop/internal/flow"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// This file implements resilience (Freire et al., cited for the Table
// II/III triad dichotomy): the minimum number of source tuples whose
// deletion empties the query result — deletion propagation with ΔV = Q(D)
// and the source side-effect objective. Two-atom self-join-free queries
// are triad-free, and their resilience is a minimum vertex cover of the
// bipartite join graph, solved exactly in polynomial time via max-flow and
// König's theorem; the general case falls back to the exact hitting-set
// search.

// Resilience computes the resilience of q on db: a minimum source
// deletion emptying Q(D), whose size is the resilience, and the method
// that found it. It uses the polynomial bipartite algorithm
// ("bipartite-vertex-cover") when the query has exactly two
// self-join-free atoms, and SourceExact ("exact-hitting-set") otherwise
// (exponential worst case; bounded by maxCandidates, 0 = default). The
// exact hitting-set search polls ctx and stops with an *Interrupted error
// when it is done.
func Resilience(ctx context.Context, q *cq.Query, db *relation.Instance, maxCandidates int) (sol *Solution, method string, err error) {
	if len(q.Body) == 2 && q.IsSelfJoinFree() {
		sol, err = resilienceBipartite(q, db)
		return sol, "bipartite-vertex-cover", err
	}
	sol, err = resilienceExact(ctx, q, db, maxCandidates)
	return sol, "exact-hitting-set", err
}

// resilienceBipartite solves the two-atom sj-free case via minimum vertex
// cover: every derivation joins one tuple of the first atom with one of
// the second; the deletion must hit every derivation. Each side's
// vertices are its atom's rows, numbered in first-seen order.
func resilienceBipartite(q *cq.Query, db *relation.Instance) (*Solution, error) {
	res, err := cq.Evaluate(q, db)
	if err != nil {
		return nil, err
	}
	var side [2]struct {
		vertex []int // row -> vertex, -1 until seen
		rows   []int32
	}
	for i := range side {
		side[i].vertex = make([]int, len(res.AtomRows(i)))
		for row := range side[i].vertex {
			side[i].vertex[row] = -1
		}
	}
	edges := make([][2]int, res.NumDerivations())
	for d := range edges {
		for i, row := range res.Rows(d) {
			s := &side[i]
			if s.vertex[row] < 0 {
				s.vertex[row] = len(s.rows)
				s.rows = append(s.rows, row)
			}
			edges[d][i] = s.vertex[row]
		}
	}
	if len(edges) == 0 {
		return &Solution{}, nil
	}
	left, right, err := flow.BipartiteVertexCover(len(side[0].rows), len(side[1].rows), edges)
	if err != nil {
		return nil, fmt.Errorf("core: resilience cover: %w", err)
	}
	sol := &Solution{}
	for i, vs := range [2][]int{left, right} {
		for _, v := range vs {
			sol.Deleted = append(sol.Deleted, relation.TupleID{Relation: q.Body[i].Relation, Tuple: res.AtomRows(i)[side[i].rows[v]]})
		}
	}
	return sol, nil
}

// resilienceExact expresses resilience as the source side-effect problem
// with ΔV = Q(D) and solves it exactly.
func resilienceExact(ctx context.Context, q *cq.Query, db *relation.Instance, maxCandidates int) (*Solution, error) {
	skel, err := NewProblem(db, []*cq.Query{q}, nil)
	if err != nil {
		return nil, err
	}
	all := view.NewDeletion()
	for _, ans := range skel.Views[0].Result.Answers() {
		all.Add(view.TupleRef{View: 0, Tuple: ans.Tuple})
	}
	if all.Len() == 0 {
		return &Solution{}, nil
	}
	p, err := skel.Specialize(all)
	if err != nil {
		return nil, err
	}
	return (&SourceExact{MaxCandidates: maxCandidates}).Solve(ctx, p)
}

// VerifyEmpty reports whether deleting the solution's tuples really
// empties Q(D); tests and callers use it as the resilience postcondition.
func VerifyEmpty(q *cq.Query, db *relation.Instance, sol *Solution) (bool, error) {
	res, err := cq.Evaluate(q, db.Without(sol.Deleted))
	if err != nil {
		return false, err
	}
	return res.NumAnswers() == 0, nil
}
