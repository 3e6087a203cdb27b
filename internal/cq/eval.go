package cq

import (
	"fmt"
	"sort"
	"strings"

	"delprop/internal/relation"
)

// Derivation is the join path of one answer: the base tuple matched by each
// body atom, in body order. With self-joins the same base tuple may occur
// for several atoms.
type Derivation []relation.TupleID

// TupleSet returns the distinct base tuples of the derivation, keyed by
// TupleID.Key.
func (d Derivation) TupleSet() map[string]relation.TupleID {
	out := make(map[string]relation.TupleID, len(d))
	for _, id := range d {
		out[id.Key()] = id
	}
	return out
}

// Uses reports whether the derivation touches the given base tuple.
func (d Derivation) Uses(id relation.TupleID) bool {
	for _, t := range d {
		if t.Equal(id) {
			return true
		}
	}
	return false
}

// Equal reports whether d and e match the same base tuple at every body
// position.
func (d Derivation) Equal(e Derivation) bool {
	if len(d) != len(e) {
		return false
	}
	for i := range d {
		if !d[i].Equal(e[i]) {
			return false
		}
	}
	return true
}

// String renders the derivation as T1(..) ⋈ T2(..).
func (d Derivation) String() string {
	parts := make([]string, len(d))
	for i, id := range d {
		parts[i] = id.String()
	}
	return strings.Join(parts, " ⋈ ")
}

// Answer is one view tuple: a head tuple together with every derivation
// producing it. For key-preserving queries each answer has exactly one
// derivation (the keys in the head pin down every joined base tuple); for
// general queries there may be several.
type Answer struct {
	Tuple       relation.Tuple
	Derivations []Derivation
}

// Result is the materialized result of evaluating a query: Q(D) plus
// provenance.
type Result struct {
	Query   *Query
	answers []*Answer      // first-derived order
	pos     map[string]int // head tuple Encode -> index into answers
}

// NumAnswers returns |Q(D)|.
func (r *Result) NumAnswers() int { return len(r.answers) }

// Answers returns all answers in first-derived order.
func (r *Result) Answers() []*Answer {
	return append([]*Answer(nil), r.answers...)
}

// Position returns the index of the head tuple's answer in first-derived
// order, if it is an answer.
func (r *Result) Position(t relation.Tuple) (int, bool) {
	var buf [64]byte
	i, ok := r.pos[string(t.AppendEncode(buf[:0]))]
	return i, ok
}

// Lookup returns the answer for the given head tuple, if present.
func (r *Result) Lookup(t relation.Tuple) (*Answer, bool) {
	if i, ok := r.Position(t); ok {
		return r.answers[i], true
	}
	return nil, false
}

// Contains reports whether the head tuple is an answer.
func (r *Result) Contains(t relation.Tuple) bool {
	_, ok := r.Position(t)
	return ok
}

// Tuples returns the answer tuples in first-derived order.
func (r *Result) Tuples() []relation.Tuple {
	out := make([]relation.Tuple, len(r.answers))
	for i, a := range r.answers {
		out[i] = a.Tuple
	}
	return out
}

// String renders the result sorted, for golden tests.
func (r *Result) String() string {
	lines := make([]string, 0, len(r.answers))
	for _, a := range r.answers {
		lines = append(lines, a.Tuple.String())
	}
	sort.Strings(lines)
	return r.Query.Name + "(D) = {" + strings.Join(lines, ", ") + "}"
}

// Evaluate computes Q(D) with provenance. The query must be valid for the
// instance's schemas (Validate); Evaluate re-checks and returns the
// validation error otherwise.
//
// The evaluator is an index-backed backtracking join: atoms are reordered
// greedily (most bound variables first, smaller relations breaking ties),
// and for each atom a hash index on its bound positions is built once and
// reused across the whole evaluation.
func Evaluate(q *Query, db *relation.Instance) (*Result, error) {
	if err := q.Validate(InstanceSchemas(db)); err != nil {
		return nil, err
	}
	ev := &evaluator{
		q:       q,
		db:      db,
		indexes: make(map[string]*relation.Index),
		res:     &Result{Query: q, pos: make(map[string]int)},
	}
	ev.run()
	return ev.res, nil
}

// MustEvaluate is Evaluate that panics on error; for tests and examples
// where the query is statically known to be valid.
func MustEvaluate(q *Query, db *relation.Instance) *Result {
	r, err := Evaluate(q, db)
	if err != nil {
		panic(err)
	}
	return r
}

// ExplainPlan reports the atom evaluation order the backtracking evaluator
// would pick for this query over this instance, one step per line with the
// relation cardinalities — the EXPLAIN counterpart for debugging slow
// workloads.
func ExplainPlan(q *Query, db *relation.Instance) (string, error) {
	if err := q.Validate(InstanceSchemas(db)); err != nil {
		return "", err
	}
	ev := &evaluator{q: q, db: db}
	order := ev.planOrder()
	var b strings.Builder
	bound := make(map[string]bool)
	for step, ai := range order {
		a := q.Body[ai]
		nb := 0
		for _, t := range a.Terms {
			if !t.IsVar() || bound[t.Var] {
				nb++
			}
		}
		fmt.Fprintf(&b, "%d. %s  (|%s|=%d, %d/%d positions bound)\n",
			step+1, a, a.Relation, db.Relation(a.Relation).Len(), nb, len(a.Terms))
		for _, v := range a.Vars() {
			bound[v] = true
		}
	}
	return b.String(), nil
}

type evaluator struct {
	q       *Query
	db      *relation.Instance
	indexes map[string]*relation.Index // keyed by relation + positions
	res     *Result

	order      []int // atom evaluation order (indexes into q.Body)
	assignment map[string]relation.Value
	derivation Derivation     // per original body position
	head       relation.Tuple // emit's scratch head tuple
	key        []byte         // emit's scratch head encoding
}

func (ev *evaluator) run() {
	ev.order = ev.planOrder()
	ev.assignment = make(map[string]relation.Value)
	ev.derivation = make(Derivation, len(ev.q.Body))
	ev.head = make(relation.Tuple, len(ev.q.Head))
	ev.join(0)
}

// planOrder picks an atom order greedily: repeatedly take the atom with the
// most already-bound variables; ties broken by smaller relation, then body
// position (determinism).
func (ev *evaluator) planOrder() []int {
	n := len(ev.q.Body)
	used := make([]bool, n)
	bound := make(map[string]bool)
	var order []int
	for len(order) < n {
		best, bestBound, bestSize := -1, -1, 0
		for i, a := range ev.q.Body {
			if used[i] {
				continue
			}
			nb := 0
			for _, t := range a.Terms {
				if !t.IsVar() || bound[t.Var] {
					nb++
				}
			}
			size := ev.db.Relation(a.Relation).Len()
			if best == -1 || nb > bestBound || (nb == bestBound && size < bestSize) {
				best, bestBound, bestSize = i, nb, size
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range ev.q.Body[best].Vars() {
			bound[v] = true
		}
	}
	return order
}

// candidates returns the tuples of atom a consistent with the current
// assignment, using (and caching) an index on the bound positions.
func (ev *evaluator) candidates(a Atom) []relation.Tuple {
	var boundPos []int
	var key relation.Tuple
	for p, t := range a.Terms {
		if !t.IsVar() {
			boundPos = append(boundPos, p)
			key = append(key, t.Const)
		} else if v, ok := ev.assignment[t.Var]; ok {
			boundPos = append(boundPos, p)
			key = append(key, v)
		}
	}
	rel := ev.db.Relation(a.Relation)
	if len(boundPos) == 0 {
		return rel.Tuples()
	}
	ik := indexKey(a.Relation, boundPos)
	idx, ok := ev.indexes[ik]
	if !ok {
		idx = relation.BuildIndex(rel, boundPos)
		ev.indexes[ik] = idx
	}
	return idx.Lookup(key)
}

func indexKey(rel string, positions []int) string {
	var b strings.Builder
	b.WriteString(rel)
	for _, p := range positions {
		fmt.Fprintf(&b, ",%d", p)
	}
	return b.String()
}

// join extends the current partial match with the step-th atom in plan
// order, recursing to enumerate all matches.
func (ev *evaluator) join(step int) {
	if step == len(ev.order) {
		ev.emit()
		return
	}
	ai := ev.order[step]
	a := ev.q.Body[ai]
	for _, t := range ev.candidates(a) {
		newVars := ev.bind(a, t)
		if newVars == nil {
			continue
		}
		ev.derivation[ai] = relation.TupleID{Relation: a.Relation, Tuple: t}
		ev.join(step + 1)
		for _, v := range newVars {
			delete(ev.assignment, v)
		}
	}
}

// bind unifies atom a with tuple t under the current assignment. On success
// it extends the assignment and returns the variables newly bound (possibly
// empty but non-nil); on conflict it returns nil leaving the assignment
// untouched.
func (ev *evaluator) bind(a Atom, t relation.Tuple) []string {
	newVars := []string{}
	for p, term := range a.Terms {
		if !term.IsVar() {
			if term.Const != t[p] {
				ev.unbind(newVars)
				return nil
			}
			continue
		}
		if v, ok := ev.assignment[term.Var]; ok {
			if v != t[p] {
				ev.unbind(newVars)
				return nil
			}
			continue
		}
		ev.assignment[term.Var] = t[p]
		newVars = append(newVars, term.Var)
	}
	return newVars
}

func (ev *evaluator) unbind(vars []string) {
	for _, v := range vars {
		delete(ev.assignment, v)
	}
}

// emit records the current complete match as an answer + derivation.
func (ev *evaluator) emit() {
	for i, t := range ev.q.Head {
		if t.IsVar() {
			ev.head[i] = ev.assignment[t.Var]
		} else {
			ev.head[i] = t.Const
		}
	}
	ev.key = ev.head.AppendEncode(ev.key[:0])
	i, ok := ev.res.pos[string(ev.key)]
	if !ok {
		i = len(ev.res.answers)
		ev.res.pos[string(ev.key)] = i
		ev.res.answers = append(ev.res.answers, &Answer{Tuple: ev.head.Clone()})
	}
	ans := ev.res.answers[i]
	// Distinct matches always produce distinct derivations for safe
	// queries, but self-joins can revisit the same derivation via symmetric
	// variable roles; dedupe defensively.
	for _, d := range ans.Derivations {
		if d.Equal(ev.derivation) {
			return
		}
	}
	der := make(Derivation, len(ev.derivation))
	copy(der, ev.derivation)
	ans.Derivations = append(ans.Derivations, der)
}
