// Package repair orchestrates the query-oriented interactive cleaning
// workflow of Section V: an oracle (domain expert, crowd, or rule engine)
// inspects query answers; deletion propagation translates the negative
// feedback into source deletions; the session iterates until no wrong
// answers remain visible. PlantedOracle judges a view tuple wrong when a
// corrupt source tuple touches it, read from one lineage.Touched mask per
// problem skeleton. The cmd/qocosim simulator is a thin wrapper over this
// package.
package repair

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/lineage"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// Oracle judges one view tuple of the current problem; true means the
// tuple is wrong and should be deleted. The oracles of this package
// cache per problem and are not safe for concurrent use.
type Oracle func(p *core.Problem, ref view.TupleRef) bool

// PlantedOracle builds an oracle from ground-truth corrupt source tuples:
// a view tuple is wrong iff some derivation touches a corrupt tuple. The
// touched mask depends only on the problem's skeleton, so it is computed
// once per provenance index.
func PlantedOracle(corrupt []relation.TupleID) Oracle {
	var cachedFor *view.Index
	var touched []bool
	return func(p *core.Problem, ref view.TupleRef) bool {
		x := p.Index()
		if x != cachedFor {
			touched, cachedFor = lineage.Touched(x, corrupt...), x
		}
		r, ok := x.LookupRef(ref)
		return ok && touched[r]
	}
}

// Mode selects how a round's feedback is propagated.
type Mode int

const (
	// Batch solves one multi-tuple problem per round (the paper's
	// setting).
	Batch Mode = iota
	// Sequential solves one problem per marked tuple, applying deletions
	// immediately (the order-dependent regime the paper argues against).
	Sequential
)

// Session is one interactive cleaning run. Each deletion request is
// solved by core.RedBlue through core.Run, and DB is mutated as the
// answers are applied.
type Session struct {
	DB      *relation.Instance
	Queries []*cq.Query
	Oracle  Oracle
	Mode    Mode
	// Rng drives the oracle's sampling (required).
	Rng *rand.Rand
}

// RoundReport describes one interaction round.
type RoundReport struct {
	Round   int
	Wrong   int // wrong view tuples visible before the round
	Marked  int // tuples the oracle inspected and condemned
	Deleted []relation.TupleID
}

// ErrNoOracle is returned when the session lacks an oracle or RNG.
var ErrNoOracle = errors.New("repair: session needs an Oracle and a Rng")

// wrongRefs materializes the current problem and lists every wrong view
// tuple.
func (s *Session) wrongRefs() (*core.Problem, []view.TupleRef, error) {
	p, err := core.NewProblem(s.DB, s.Queries, nil)
	if err != nil {
		return nil, nil, err
	}
	var wrong []view.TupleRef
	for _, v := range p.Views {
		for _, ans := range v.Result.Answers() {
			ref := view.TupleRef{View: v.Index, Tuple: ans.Tuple}
			if s.Oracle(p, ref) {
				wrong = append(wrong, ref)
			}
		}
	}
	return p, wrong, nil
}

// Round performs one interaction round with an inspection budget of k view
// tuples, applying the resulting deletions to DB. converged is true when
// no wrong view tuples were visible (no work done).
func (s *Session) Round(round, k int) (RoundReport, bool, error) {
	if s.Oracle == nil || s.Rng == nil {
		return RoundReport{}, false, ErrNoOracle
	}
	p, wrong, err := s.wrongRefs()
	if err != nil {
		return RoundReport{}, false, err
	}
	rep := RoundReport{Round: round, Wrong: len(wrong)}
	if len(wrong) == 0 {
		return rep, true, nil
	}
	perm := s.Rng.Perm(len(wrong))
	if k > len(wrong) {
		k = len(wrong)
	}
	marked := make([]view.TupleRef, 0, k)
	for _, i := range perm[:k] {
		marked = append(marked, wrong[i])
	}
	rep.Marked = len(marked)

	// propagate solves one deletion request with core.RedBlue and applies
	// the answer to DB.
	propagate := func(p *core.Problem) error {
		res, err := core.Run(context.Background(), &core.RedBlue{}, p, 0, core.RunHooks{})
		if err != nil {
			return fmt.Errorf("repair: round %d: %w", round, err)
		}
		for _, id := range res.Solution.Deleted {
			if s.DB.Delete(id) {
				rep.Deleted = append(rep.Deleted, id)
			}
		}
		return nil
	}
	switch s.Mode {
	case Batch:
		if p, err = p.Specialize(view.NewDeletion(marked...)); err != nil {
			return rep, false, err
		}
		if err := propagate(p); err != nil {
			return rep, false, err
		}
	case Sequential:
		for _, ref := range marked {
			sub, err := core.NewProblem(s.DB, s.Queries, nil)
			if err != nil {
				return rep, false, err
			}
			if !sub.Views[ref.View].Result.Contains(ref.Tuple) {
				continue // already gone from an earlier deletion
			}
			if sub, err = sub.Specialize(view.NewDeletion(ref)); err != nil {
				return rep, false, err
			}
			if err := propagate(sub); err != nil {
				return rep, false, err
			}
		}
	default:
		return rep, false, fmt.Errorf("repair: unknown mode %d", s.Mode)
	}
	return rep, false, nil
}

// Run performs rounds until convergence or maxRounds, returning the
// per-round reports (the final report, when converged, has Wrong == 0).
func (s *Session) Run(maxRounds, perRound int) ([]RoundReport, error) {
	var out []RoundReport
	for round := 1; round <= maxRounds; round++ {
		rep, converged, err := s.Round(round, perRound)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
		if converged {
			break
		}
	}
	return out, nil
}
