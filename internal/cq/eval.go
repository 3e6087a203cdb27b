package cq

import (
	"slices"
	"sort"
	"strings"

	"delprop/internal/relation"
)

// Derivation is the join path of one answer: the base tuple matched by each
// body atom, in body order. With self-joins the same base tuple may occur
// for several atoms.
type Derivation []relation.TupleID

// String renders the derivation as T1(..) ⋈ T2(..).
func (d Derivation) String() string {
	parts := make([]string, len(d))
	for i, id := range d {
		parts[i] = id.String()
	}
	return strings.Join(parts, " ⋈ ")
}

// Answer is one view tuple of a Result: its head tuple and, through the
// Result, every derivation producing it. For key-preserving queries each
// answer has exactly one derivation (the keys in the head pin down every
// joined base tuple); for general queries there may be several. An Answer
// is a handle: its derivations are built on demand from the Result's
// row ids.
type Answer struct {
	Tuple relation.Tuple
	res   *Result
	pos   int
}

// Derivations builds the answer's derivations, in the order they were
// derived.
func (a Answer) Derivations() []Derivation {
	lo, hi := a.res.Derivations(a.pos)
	out := make([]Derivation, 0, hi-lo)
	for d := lo; d < hi; d++ {
		out = append(out, a.res.Derivation(d))
	}
	return out
}

// Result is the materialized result of evaluating a query: Q(D) plus
// provenance. Every derivation is stored once, as one int32 row per body
// atom: a row is a position in the atom's relation's Tuples() order when
// the query was evaluated, and the Result keeps that snapshot of each
// relation it read, so later deletions from the instance cannot shift
// rows under it. Head values and derivations live in exact-size flat
// arrays, and a head tuple finds its answer through a relation.Table
// hashed by the head values. The head values are written once, when
// evaluation ends, from each answer's first derivation.
type Result struct {
	Query *Query
	// heads[a*arity:(a+1)*arity] is answer a's head tuple; answers are
	// in first-derived order.
	heads []relation.Value
	arity int
	// derivStart[a]..derivStart[a+1] are answer a's derivation ids, in
	// the order derived; rows[d*width:(d+1)*width] are derivation d's
	// rows in body order.
	derivStart []int32
	rows       []int32
	width      int
	// atomRows[i] is body atom i's relation as the join read it: its
	// Relation.Tuples snapshot, which every evaluation over the same
	// state of the relation shares.
	atomRows [][]relation.Tuple
	// index holds the answers, hashed by their head tuples (Tuple.Hash).
	index relation.Table
}

// NumAnswers returns |Q(D)|.
func (r *Result) NumAnswers() int { return len(r.heads) / r.arity }

// NumDerivations returns the number of derivations over all answers.
func (r *Result) NumDerivations() int { return len(r.rows) / r.width }

// Tuple returns answer a's head tuple. The slice is the Result's own;
// callers must not modify it.
func (r *Result) Tuple(a int) relation.Tuple {
	return r.heads[a*r.arity : (a+1)*r.arity : (a+1)*r.arity]
}

// answer returns the handle of answer a.
func (r *Result) answer(a int) Answer { return Answer{Tuple: r.Tuple(a), res: r, pos: a} }

// Answers returns all answers in first-derived order.
func (r *Result) Answers() []Answer {
	out := make([]Answer, r.NumAnswers())
	for a := range out {
		out[a] = r.answer(a)
	}
	return out
}

// Derivations returns the derivation ids [lo, hi) of answer a, in the
// order they were derived. Derivation ids run over all answers in answer
// order.
func (r *Result) Derivations(a int) (lo, hi int) {
	return int(r.derivStart[a]), int(r.derivStart[a+1])
}

// Rows returns derivation d's rows, one per body atom in body order: row
// i indexes AtomRows(i). The slice is the Result's own; callers must not
// modify it.
func (r *Result) Rows(d int) []int32 {
	return r.rows[d*r.width : (d+1)*r.width : (d+1)*r.width]
}

// AtomRows returns body atom i's relation as evaluated: its tuples in
// Relation.Tuples() order. The slice is the Result's own; callers must
// not modify it.
func (r *Result) AtomRows(i int) []relation.Tuple { return r.atomRows[i] }

// TupleID returns the base tuple body atom i matched in derivation d.
func (r *Result) TupleID(d, i int) relation.TupleID {
	return relation.TupleID{Relation: r.Query.Body[i].Relation, Tuple: r.atomRows[i][r.rows[d*r.width+i]]}
}

// Derivation builds derivation d's join path.
func (r *Result) Derivation(d int) Derivation {
	out := make(Derivation, r.width)
	for i := range out {
		out[i] = r.TupleID(d, i)
	}
	return out
}

// Position returns the index of the head tuple's answer in first-derived
// order, if it is an answer.
func (r *Result) Position(t relation.Tuple) (int, bool) {
	i, _ := r.index.Find(t.Hash(), func(a int32) bool { return r.Tuple(int(a)).Equal(t) })
	return int(i), i >= 0
}

// Lookup returns the answer for the given head tuple, if present.
func (r *Result) Lookup(t relation.Tuple) (Answer, bool) {
	if i, ok := r.Position(t); ok {
		return r.answer(i), true
	}
	return Answer{}, false
}

// Contains reports whether the head tuple is an answer.
func (r *Result) Contains(t relation.Tuple) bool {
	_, ok := r.Position(t)
	return ok
}

// String renders the result sorted, for golden tests.
func (r *Result) String() string {
	lines := make([]string, r.NumAnswers())
	for a := range lines {
		lines[a] = r.Tuple(a).String()
	}
	sort.Strings(lines)
	return r.Query.Name + "(D) = {" + strings.Join(lines, ", ") + "}"
}

// Evaluate computes Q(D) with provenance. The query must be valid for the
// instance's schemas (Validate); Evaluate re-checks and returns the
// validation error otherwise.
//
// The evaluator is a backtracking join over a plan compiled once per call
// (compile): atoms in a greedy order, variables in numbered slots, and per
// atom a hash index on the positions bound when it is reached.
func Evaluate(q *Query, db *relation.Instance) (*Result, error) {
	if err := q.Validate(InstanceSchemas(db)); err != nil {
		return nil, err
	}
	pl := compile(q, db)
	res := &Result{
		Query:    q,
		arity:    len(q.Head),
		width:    len(q.Body),
		atomRows: make([][]relation.Tuple, len(q.Body)),
	}
	for i := range pl.steps {
		s := &pl.steps[i]
		all := s.rel.Tuples() // one snapshot per relation state
		s.buildIndex(all)
		res.atomRows[s.atom] = all
	}
	ev := &evaluator{
		plan: pl,
		res:  res,
		vals: make([]relation.Value, pl.slots),
		cur:  make([]int32, len(q.Body)),
	}
	ev.join(0)
	ev.finish()
	return res, nil
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

type evaluator struct {
	*plan
	res  *Result
	vals []relation.Value // slot values of the current partial match
	// cur is the current match by plan step, each step's tuple as a row
	// of its relation.
	cur []int32
	key relation.Tuple // a probe's bound values, or a match's head
	// Growable scratch that finish turns into the result's exact-size
	// arrays: per answer, in first-derived order, its head's hash and its
	// first derivation; per derivation, in the order derived, its answer
	// and its cur.
	ansHash  []uint64
	ansFirst []int32
	derivAns []int32
	derivTup []int32
}

// join extends the current partial match with plan step i, recursing to
// enumerate all matches.
func (ev *evaluator) join(i int) {
	if i == len(ev.steps) {
		ev.emit()
		return
	}
	s := &ev.steps[i]
	ev.key = ev.key[:0]
	for _, b := range s.bound {
		v := b.val
		if b.slot >= 0 {
			v = ev.vals[b.slot]
		}
		ev.key = append(ev.key, v)
	}
	bucket, _ := s.bucket(ev.key, ev.key.Hash())
	if bucket < 0 {
		return
	}
next:
	for row := s.first[bucket]; row >= 0; row = s.next[row] {
		t := s.all[row]
		for _, c := range s.binds {
			ev.vals[c.slot] = t[c.pos]
		}
		for _, c := range s.checks {
			if t[c.pos] != ev.vals[c.slot] {
				continue next
			}
		}
		ev.cur[i] = row
		ev.join(i + 1)
	}
}

// emit records the current complete match as a derivation of its answer,
// adding the answer if it is new. A plan step never yields the same tuple
// twice for one partial match, so every match is a distinct derivation.
func (ev *evaluator) emit() {
	ev.key = ev.key[:0]
	for _, hv := range ev.plan.head {
		ev.key = append(ev.key, ev.vals[hv.slot])
	}
	h, r := ev.key.Hash(), ev.res
	ans, slot := r.index.Find(h, func(a int32) bool { return ev.ansHash[a] == h && ev.sameHead(a) })
	if ans < 0 {
		ans = int32(len(ev.ansHash))
		ev.ansHash = append(ev.ansHash, h)
		ev.ansFirst = append(ev.ansFirst, int32(len(ev.derivAns)))
		r.index.Insert(slot, ans, h, ev.answerHash)
	}
	ev.derivAns = append(ev.derivAns, ans)
	ev.derivTup = append(ev.derivTup, ev.cur...)
}

// sameHead reports whether answer a's head, read from its first
// derivation, is the current match's.
func (ev *evaluator) sameHead(a int32) bool {
	first := ev.derivTup[int(ev.ansFirst[a])*len(ev.steps):]
	for _, hv := range ev.plan.head {
		if ev.steps[hv.step].all[first[hv.step]][hv.pos] != ev.vals[hv.slot] {
			return false
		}
	}
	return true
}

// answerHash returns answer a's kept head hash, so that a doubling
// table places answers again without reading any head.
func (ev *evaluator) answerHash(a int32) uint64 { return ev.ansHash[a] }

// finish builds the result's exact-size arrays from the scratch,
// grouping each answer's derivations in the order they were derived and
// putting each derivation's rows in body order, then reads each answer's
// head from its first derivation.
func (ev *evaluator) finish() {
	r := ev.res
	n, width := len(ev.ansHash), r.width

	r.derivStart = make([]int32, n+1)
	for _, a := range ev.derivAns {
		r.derivStart[a+1]++
	}
	for a := 0; a < n; a++ {
		r.derivStart[a+1] += r.derivStart[a]
	}
	r.rows = make([]int32, len(ev.derivTup))
	fill := slices.Clone(r.derivStart[:n])
	for d, a := range ev.derivAns {
		k := int(fill[a])
		fill[a]++
		dst := r.rows[k*width : (k+1)*width]
		for i, row := range ev.derivTup[d*width : (d+1)*width] {
			dst[ev.steps[i].atom] = row
		}
	}
	r.heads = make([]relation.Value, n*r.arity)
	for a := range n {
		first := r.Rows(int(r.derivStart[a]))
		for j, hv := range ev.plan.head {
			atom := ev.steps[hv.step].atom
			r.heads[a*r.arity+j] = r.atomRows[atom][first[atom]][hv.pos]
		}
	}
}
