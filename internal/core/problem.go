// Package core implements the paper's contribution: the view side-effect
// minimization problem for multiple key-preserving conjunctive queries
// (Section II.C), its balanced variant (Section III), and the full solver
// suite — brute force and single-tuple exact baselines, the greedy
// heuristic, the Red-Blue Set Cover reduction of Claim 1, the balanced
// reduction of Lemma 1, the primal-dual l-approximation of Algorithm 1, the
// low-degree 2√‖V‖ algorithms of Algorithms 2–3, and the exact dynamic
// program of Algorithm 4 for the pivot forest case.
//
// NewProblem and Specialize resolve a Problem's deletion request to the
// provenance index's ref ids once, so solvers, Evaluate and the bounds
// read ids; SetWeight is the only edit after construction.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"delprop/internal/classify"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// Problem is one instance of the deletion propagation problem: a source
// database D, queries Q, their materialized views V, the deletion request
// ΔV, and optional preservation weights on the view tuples to keep.
type Problem struct {
	DB      *relation.Instance
	Queries []*cq.Query
	Views   []*view.View

	skel *skeleton
	rq   requestRefs
}

// skeleton is what a Problem derives from (D, Q) alone, shared by pointer
// with every Specialize derivative: the dense provenance index, the
// key-preserving verdict, and two artifacts built on first use — the
// classify verdicts and the pivot forest. None depends on the request.
type skeleton struct {
	index         *view.Index
	keyPreserving bool
	class         lazy[[]classify.Properties]
	pivot         lazy[*pivotForest]
}

// lazy memoizes one skeleton artifact, error included.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get builds the artifact on the first call and returns the memo after.
func (l *lazy[T]) get(build func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = build() })
	return l.v, l.err
}

// Construction errors.
var (
	// ErrNotKeyPreserving is returned by solvers that require every query
	// to be key-preserving.
	ErrNotKeyPreserving = errors.New("core: problem requires key-preserving queries")
	// ErrTooLarge is returned by exponential solvers on oversized inputs.
	ErrTooLarge = errors.New("core: instance too large for this solver")
	// ErrInfeasibleRestriction is returned when a candidate restriction
	// (e.g. the low-degree cap of Algorithm 2) makes some requested view
	// tuple unkillable.
	ErrInfeasibleRestriction = errors.New("core: restriction leaves a requested view tuple unkillable")
)

// NewProblem materializes the views, builds the provenance index and
// resolves the deletion request against it. delta may be nil.
func NewProblem(db *relation.Instance, queries []*cq.Query, delta *view.Deletion) (*Problem, error) {
	views, err := view.Materialize(queries, db)
	if err != nil {
		return nil, err
	}
	skel := &skeleton{index: view.BuildIndex(views), keyPreserving: true}
	p := &Problem{DB: db, Queries: queries, Views: views, skel: skel}
	if p.rq, err = resolveRequest(skel.index, len(views), delta); err != nil {
		return nil, err
	}
	for _, q := range queries {
		kp, err := q.IsKeyPreserving(cq.InstanceSchemas(db))
		if err != nil {
			return nil, err
		}
		if !kp {
			skel.keyPreserving = false
		}
	}
	return p, nil
}

// QueryProperties returns the classify verdict for every query, computed
// once per skeleton and shared across Specialize derivatives — the solve
// path must never re-run classification for a problem it already
// classified.
func (p *Problem) QueryProperties() ([]classify.Properties, error) {
	return p.skel.class.get(func() ([]classify.Properties, error) {
		schemas := cq.InstanceSchemas(p.DB)
		props := make([]classify.Properties, len(p.Queries))
		for i, q := range p.Queries {
			pr, err := classify.Analyze(q, schemas, nil)
			if err != nil {
				return nil, err
			}
			props[i] = pr
		}
		return props, nil
	})
}

// Specialize derives a new Problem against the same skeleton — database,
// queries, materialized views and every skeleton artifact are shared by
// pointer — with a fresh deletion request and no weights. It is the
// warm-session counterpart of NewProblem: resolving delta against the
// index is the only work done.
func (p *Problem) Specialize(delta *view.Deletion) (*Problem, error) {
	rq, err := resolveRequest(p.skel.index, len(p.Views), delta)
	if err != nil {
		return nil, err
	}
	return &Problem{DB: p.DB, Queries: p.Queries, Views: p.Views, skel: p.skel, rq: rq}, nil
}

// IsKeyPreserving reports whether every query of the problem is
// key-preserving.
func (p *Problem) IsKeyPreserving() bool { return p.skel.keyPreserving }

// Index returns the dense provenance index, built once per skeleton.
func (p *Problem) Index() *view.Index { return p.skel.index }

// requestRefs is one request's ΔV and preservation weights as the index's
// ref ids, resolved once when the Problem is built, so per-candidate work
// compares ids instead of building string keys. An empty request holds no
// arrays.
type requestRefs struct {
	x       *view.Index
	refs    []view.TupleRef // ΔV as requested, in insertion order
	delta   []int32         // refs' ids, in the same order
	inDelta []bool          // by ref id; nil when ΔV is empty
	weights []float64       // by ref id; nil when every weight is 1
	cands   []int32         // candidate tuple ids, ascending (see CandidateTuples)
}

// resolveRequest resolves delta against the index of n views. One
// LookupRef per ref both validates it and gives its id.
func resolveRequest(x *view.Index, n int, delta *view.Deletion) (requestRefs, error) {
	rq := requestRefs{x: x}
	if delta == nil || delta.Len() == 0 {
		return rq, nil
	}
	rq.refs = delta.Refs()
	rq.delta = make([]int32, len(rq.refs))
	rq.inDelta = make([]bool, x.NumRefs())
	for i, ref := range rq.refs {
		r, ok := x.LookupRef(ref)
		if !ok && (ref.View < 0 || ref.View >= n) {
			return requestRefs{}, fmt.Errorf("%w: view index %d out of range", view.ErrUnknownViewTuple, ref.View)
		} else if !ok {
			return requestRefs{}, fmt.Errorf("%w: %s", view.ErrUnknownViewTuple, ref)
		}
		rq.delta[i] = r
		rq.inDelta[r] = true
		lo, hi := x.Derivations(r)
		for d := range hi - lo {
			rq.cands = append(rq.cands, x.DerivTuples(lo+d)...)
		}
	}
	slices.Sort(rq.cands)
	rq.cands = slices.Compact(rq.cands)
	return rq, nil
}

// requested reports whether ref r is in ΔV.
func (rq *requestRefs) requested(r int32) bool { return rq.inDelta != nil && rq.inDelta[r] }

// weight returns the preservation weight of ref r.
func (rq *requestRefs) weight(r int32) float64 {
	if rq.weights == nil {
		return 1
	}
	return rq.weights[r]
}

// tupleIDs converts tuple ids back to base tuples.
func tupleIDs(x *view.Index, ts []int32) []relation.TupleID {
	out := make([]relation.TupleID, len(ts))
	for i, t := range ts {
		out[i] = x.Tuple(t)
	}
	return out
}

// DeltaLen returns ‖ΔV‖, the number of view tuples requested.
func (p *Problem) DeltaLen() int { return len(p.rq.delta) }

// DeltaRefs returns the requested view tuples in request order, in a
// fresh slice.
func (p *Problem) DeltaRefs() []view.TupleRef { return slices.Clone(p.rq.refs) }

// DeltaString renders the request sorted, as view.Deletion.String does.
func (p *Problem) DeltaString() string { return view.NewDeletion(p.rq.refs...).String() }

// SetWeight assigns a preservation weight to a view tuple. A ref that is
// not a view tuple is ignored.
func (p *Problem) SetWeight(ref view.TupleRef, w float64) {
	r, ok := p.rq.x.LookupRef(ref)
	if !ok {
		return
	}
	if p.rq.weights == nil {
		p.rq.weights = make([]float64, p.rq.x.NumRefs())
		for i := range p.rq.weights {
			p.rq.weights[i] = 1
		}
	}
	p.rq.weights[r] = w
}

// TotalViewSize returns ‖V‖.
func (p *Problem) TotalViewSize() int { return view.TotalSize(p.Views) }

// MaxArity returns l = max arity(Q).
func (p *Problem) MaxArity() int { return view.MaxArity(p.Views) }

// Answer returns the provenance answer behind a view tuple reference.
func (p *Problem) Answer(ref view.TupleRef) (cq.Answer, bool) {
	if ref.View < 0 || ref.View >= len(p.Views) {
		return cq.Answer{}, false
	}
	return p.Views[ref.View].Result.Lookup(ref.Tuple)
}

// CandidateTuples returns the base tuples occurring in some derivation of
// some requested view tuple — the only deletions that can ever help, since
// any other deletion leaves ΔV intact and can only add collateral damage.
// The result is sorted by tuple key for determinism.
func (p *Problem) CandidateTuples() []relation.TupleID {
	return tupleIDs(p.rq.x, p.rq.cands)
}

// Solution is a proposed source deletion ΔD.
type Solution struct {
	Deleted []relation.TupleID
}

// String renders the deletion sorted.
func (s *Solution) String() string {
	parts := make([]string, len(s.Deleted))
	for i, id := range s.Deleted {
		parts[i] = id.String()
	}
	sort.Strings(parts)
	return "ΔD{" + strings.Join(parts, ", ") + "}"
}

// Report is the evaluation of a solution against a problem.
type Report struct {
	// Feasible is true when every requested view tuple is eliminated
	// (condition (a) of Section II.C).
	Feasible bool
	// SideEffect is the weighted count of preserved view tuples destroyed
	// (Σ si of Section II.C, weighted).
	SideEffect float64
	// Collateral lists the destroyed preserved view tuples.
	Collateral []view.TupleRef
	// BadRemaining counts requested view tuples still alive.
	BadRemaining int
	// Balanced is the balanced objective of Section III: BadRemaining +
	// SideEffect (each surviving bad tuple costs 1).
	Balanced float64
	// DeletedCount is |ΔD|.
	DeletedCount int
}

// String renders the report on one line for CLI output and logs.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "feasible=%v side-effect=%v deleted=%d", r.Feasible, r.SideEffect, r.DeletedCount)
	if r.BadRemaining > 0 {
		fmt.Fprintf(&b, " bad-remaining=%d balanced=%v", r.BadRemaining, r.Balanced)
	}
	if len(r.Collateral) > 0 {
		parts := make([]string, len(r.Collateral))
		for i, ref := range r.Collateral {
			parts[i] = ref.String()
		}
		sort.Strings(parts)
		fmt.Fprintf(&b, " collateral=[%s]", strings.Join(parts, " "))
	}
	return b.String()
}

// Evaluate scores a solution using provenance (no re-evaluation of the
// queries): it walks out from the deleted tuples' occurrences, so the
// work follows ΔD and the view tuples it kills, not ‖V‖. Collateral comes
// out in (view, answer) order. Tests cross-check this against full
// re-evaluation.
func (p *Problem) Evaluate(sol *Solution) Report {
	x := p.Index()
	deleted := make([]int32, 0, len(sol.Deleted))
	for _, id := range sol.Deleted {
		if t, ok := x.LookupTuple(id); ok {
			deleted = append(deleted, t)
		}
	}
	return p.evaluate(deleted, len(sol.Deleted))
}

// evaluate is Evaluate for a deletion given as tuple ids (duplicates
// harmless); count is |ΔD| as the caller counts it.
func (p *Problem) evaluate(deleted []int32, count int) Report {
	rq := &p.rq
	rep := Report{DeletedCount: count}
	removedRequested := 0
	for _, r := range rq.x.Killed(deleted) {
		if rq.requested(r) {
			removedRequested++
		} else {
			rep.Collateral = append(rep.Collateral, rq.x.Ref(r))
			rep.SideEffect += rq.weight(r)
		}
	}
	rep.BadRemaining = len(rq.delta) - removedRequested
	rep.Feasible = rep.BadRemaining == 0
	rep.Balanced = float64(rep.BadRemaining) + rep.SideEffect
	return rep
}

// EvaluateByReevaluation recomputes every view on D\ΔD and scores the
// solution from scratch, matching ΔV by the requested refs themselves.
// Slower but independent of the provenance index (ref ids, which the
// weights are stored by, number the views' answers in order); used to
// validate Evaluate.
func (p *Problem) EvaluateByReevaluation(sol *Solution) (Report, error) {
	db2 := p.DB.Without(sol.Deleted)
	requested := view.NewDeletion(p.rq.refs...)
	rep := Report{DeletedCount: len(sol.Deleted)}
	removedRequested := 0
	var r int32
	for _, v := range p.Views {
		res2, err := cq.Evaluate(v.Query, db2)
		if err != nil {
			return Report{}, err
		}
		for _, ans := range v.Result.Answers() {
			w := p.rq.weight(r)
			r++
			if res2.Contains(ans.Tuple) {
				continue
			}
			ref := view.TupleRef{View: v.Index, Tuple: ans.Tuple}
			if requested.Contains(ref) {
				removedRequested++
			} else {
				rep.Collateral = append(rep.Collateral, ref)
				rep.SideEffect += w
			}
		}
	}
	rep.BadRemaining = requested.Len() - removedRequested
	rep.Feasible = rep.BadRemaining == 0
	rep.Balanced = float64(rep.BadRemaining) + rep.SideEffect
	return rep, nil
}

// Solver is the common interface of all deletion propagation algorithms.
type Solver interface {
	// Name returns a short identifier for reports and benchmarks.
	Name() string
	// Solve computes a source deletion for the problem. Implementations
	// document whether the result is exact or approximate and any
	// preconditions (key-preserving, forest structure, size bounds).
	// Solvers poll ctx cooperatively and stop with an *Interrupted error
	// (see cancel.go) when it is done; the error carries the best
	// feasible solution found so far when the algorithm maintains one.
	Solve(ctx context.Context, p *Problem) (*Solution, error)
}

// requireKeyPreserving is shared by solvers whose correctness rests on the
// one-derivation-per-view-tuple property.
func requireKeyPreserving(p *Problem, solver string) error {
	if !p.IsKeyPreserving() {
		return fmt.Errorf("%w (solver %s)", ErrNotKeyPreserving, solver)
	}
	return nil
}
