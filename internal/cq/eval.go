package cq

import (
	"bytes"
	"hash/maphash"
	"slices"
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
// provenance. Answers, head values, derivations and their base tuples are
// carved out of exact-size backing arrays, and a head tuple finds its
// answer through an open-addressing table over the head encodings.
type Result struct {
	Query   *Query
	answers []Answer // first-derived order
	// keys[keyOff[i]:keyOff[i+1]] is answer i's head tuple in
	// Tuple.AppendEncode form.
	keys   []byte
	keyOff []int32
	// slots is a hash table at most half full, probed linearly: each slot
	// holds an answer index plus one, or zero when empty.
	slots []int32
	seed  maphash.Seed
}

// NumAnswers returns |Q(D)|.
func (r *Result) NumAnswers() int { return len(r.answers) }

// Answers returns all answers in first-derived order.
func (r *Result) Answers() []*Answer {
	out := make([]*Answer, len(r.answers))
	for i := range r.answers {
		out[i] = &r.answers[i]
	}
	return out
}

// Position returns the index of the head tuple's answer in first-derived
// order, if it is an answer.
func (r *Result) Position(t relation.Tuple) (int, bool) {
	var buf [64]byte
	i, _ := r.find(t.AppendEncode(buf[:0]))
	return int(i), i >= 0
}

// Lookup returns the answer for the given head tuple, if present.
func (r *Result) Lookup(t relation.Tuple) (*Answer, bool) {
	if i, ok := r.Position(t); ok {
		return &r.answers[i], true
	}
	return nil, false
}

// Contains reports whether the head tuple is an answer.
func (r *Result) Contains(t relation.Tuple) bool {
	_, ok := r.Position(t)
	return ok
}

// CompareAnswers orders answers i and j as their head tuples' Encode forms
// compare.
func (r *Result) CompareAnswers(i, j int) int {
	return bytes.Compare(r.key(int32(i)), r.key(int32(j)))
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

// key returns answer i's head encoding.
func (r *Result) key(i int32) []byte { return r.keys[r.keyOff[i]:r.keyOff[i+1]] }

// find returns the answer whose head encoding is key, or -1 and the empty
// slot where that answer belongs.
func (r *Result) find(key []byte) (ans int32, slot int) {
	if len(r.slots) == 0 {
		return -1, 0
	}
	mask := len(r.slots) - 1
	for i := int(maphash.Bytes(r.seed, key)) & mask; ; i = (i + 1) & mask {
		s := r.slots[i]
		if s == 0 {
			return -1, i
		}
		if bytes.Equal(r.key(s-1), key) {
			return s - 1, i
		}
	}
}

// add appends an answer with head encoding key, which must not be present,
// growing the table first if it would pass half full, and returns its
// index.
func (r *Result) add(key []byte) int32 {
	n := int32(len(r.keyOff) - 1)
	if 2*int(n+1) > len(r.slots) {
		r.slots = make([]int32, max(8, 2*len(r.slots)))
		for i := int32(0); i < n; i++ {
			_, slot := r.find(r.key(i))
			r.slots[slot] = i + 1
		}
	}
	_, slot := r.find(key)
	r.slots[slot] = n + 1
	r.keys = append(r.keys, key...)
	r.keyOff = append(r.keyOff, int32(len(r.keys)))
	return n
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
	for i := range pl.steps {
		pl.steps[i].buildIndex()
	}
	ev := &evaluator{
		plan: pl,
		res:  &Result{Query: q, keyOff: []int32{0}, seed: maphash.MakeSeed()},
		vals: make([]relation.Value, pl.slots),
		cur:  make([]int32, len(q.Body)),
	}
	ev.join(0)
	ev.finish()
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

type evaluator struct {
	*plan
	res  *Result
	vals []relation.Value // slot values of the current partial match
	// cur is the current match by plan step, each step's tuple as an
	// index into its tuples.
	cur []int32
	buf []byte // probe and head-encoding scratch
	// Growable scratch that finish turns into the result's exact-size
	// arrays: per derivation, in the order derived, its answer and its
	// cur, and per answer its first derivation.
	derivAns   []int32
	derivTup   []int32
	firstDeriv []int32
}

// join extends the current partial match with plan step i, recursing to
// enumerate all matches.
func (ev *evaluator) join(i int) {
	if i == len(ev.steps) {
		ev.emit()
		return
	}
	s := &ev.steps[i]
	ev.buf = ev.buf[:0]
	for _, b := range s.bound {
		v := b.val
		if b.slot >= 0 {
			v = ev.vals[b.slot]
		}
		ev.buf = v.AppendEncode(ev.buf)
	}
	bucket, ok := s.buckets[string(ev.buf)]
	if !ok {
		return
	}
next:
	for k := s.start[bucket]; k < s.start[bucket+1]; k++ {
		t := s.tuples[k]
		for _, c := range s.binds {
			ev.vals[c.slot] = t[c.pos]
		}
		for _, c := range s.checks {
			if t[c.pos] != ev.vals[c.slot] {
				continue next
			}
		}
		ev.cur[i] = k
		ev.join(i + 1)
	}
}

// emit records the current complete match as a derivation of its answer,
// adding the answer if it is new. A plan step never yields the same tuple
// twice for one partial match, so every match is a distinct derivation.
func (ev *evaluator) emit() {
	ev.buf = ev.buf[:0]
	for _, slot := range ev.head {
		ev.buf = ev.vals[slot].AppendEncode(ev.buf)
	}
	ans, _ := ev.res.find(ev.buf)
	if ans < 0 {
		ans = ev.res.add(ev.buf)
		ev.firstDeriv = append(ev.firstDeriv, int32(len(ev.derivAns)))
	}
	ev.derivAns = append(ev.derivAns, ans)
	ev.derivTup = append(ev.derivTup, ev.cur...)
}

// finish builds the result's exact-size arrays from the scratch,
// grouping each answer's derivations in the order they were derived. An
// answer's head values are read off its first derivation's tuples.
func (ev *evaluator) finish() {
	r := ev.res
	n, arity, width := len(r.keyOff)-1, len(ev.head), len(ev.cur)
	r.keys = slices.Clone(r.keys)
	r.keyOff = slices.Clone(r.keyOff)

	// start[a]..start[a+1] will be answer a's derivations.
	start := make([]int32, n+1)
	for _, a := range ev.derivAns {
		start[a+1]++
	}
	for a := 0; a < n; a++ {
		start[a+1] += start[a]
	}
	derivs := make([]Derivation, len(ev.derivAns))
	ids := make([]relation.TupleID, len(ev.derivTup))
	fill := slices.Clone(start[:n])
	for d, a := range ev.derivAns {
		k := int(fill[a])
		fill[a]++
		der := ids[k*width : (k+1)*width : (k+1)*width]
		for i, t := range ev.derivTup[d*width : (d+1)*width] {
			s := &ev.steps[i]
			der[s.atom] = relation.TupleID{Relation: s.name, Tuple: s.tuples[t]}
		}
		derivs[k] = der
	}
	heads := make([]relation.Value, n*arity)
	r.answers = make([]Answer, n)
	for a := range r.answers {
		head := heads[a*arity : (a+1)*arity : (a+1)*arity]
		first := ev.derivTup[int(ev.firstDeriv[a])*width:]
		for j, src := range ev.headSrc {
			head[j] = ev.steps[src.step].tuples[first[src.step]][src.pos]
		}
		r.answers[a] = Answer{Tuple: head, Derivations: derivs[start[a]:start[a+1]:start[a+1]]}
	}
}
