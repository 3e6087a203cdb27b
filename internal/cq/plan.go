package cq

import (
	"fmt"
	"strings"

	"delprop/internal/relation"
)

// plan is a query compiled against one instance: its atoms in join order,
// with every variable numbered by the slot that holds its value.
type plan struct {
	steps []step
	head  []binding // of each head variable
	slots int
}

// binding is where the join binds a variable: its slot, and the plan
// step and atom position that first hold it.
type binding struct{ slot, step, pos int }

// step is one atom of the plan. A probe gathers the bound positions'
// values, in position order, and looks them up in index; each tuple of
// the matching bucket then sets binds and must agree with checks.
type step struct {
	atom   int // position in the query body
	rel    *relation.Relation
	bound  []source // constants and variables of earlier steps
	binds  []slotAt // first occurrence in this atom of a new variable
	checks []slotAt // later occurrences in this atom of a new variable
	// The hash index on the bound positions. Bucket b's rows, ascending,
	// are first[b], next[first[b]], ... up to -1, buckets numbered in the
	// order their first rows come; a row indexes all, the relation's
	// Tuples(). index finds a bucket by the bound values of its first
	// row.
	index relation.Table
	first []int32
	next  []int32
	all   []relation.Tuple
}

// source is a bound position's value: the constant val when slot < 0.
type source struct {
	pos, slot int
	val       relation.Value
}

// slotAt ties an atom position to a variable slot.
type slotAt struct{ pos, slot int }

// compile orders the atoms greedily — repeatedly the atom with the most
// bound positions (constants or variables of earlier atoms), ties broken
// by smaller relation, then body position — and numbers variables in the
// order the join binds them.
func compile(q *Query, db *relation.Instance) *plan {
	pl := &plan{}
	slot := make(map[string]int)
	var bindings []binding // by slot
	used := make([]bool, len(q.Body))
	for range q.Body {
		best, bestBound, bestSize := -1, -1, 0
		for i, a := range q.Body {
			if used[i] {
				continue
			}
			nb := 0
			for _, t := range a.Terms {
				if _, ok := slot[t.Var]; ok || !t.IsVar() {
					nb++
				}
			}
			size := db.Relation(a.Relation).Len()
			if best == -1 || nb > bestBound || (nb == bestBound && size < bestSize) {
				best, bestBound, bestSize = i, nb, size
			}
		}
		used[best] = true
		a := q.Body[best]
		s := step{atom: best, rel: db.Relation(a.Relation)}
		earlier := len(slot)
		for p, t := range a.Terms {
			sl, ok := slot[t.Var]
			switch {
			case !t.IsVar():
				s.bound = append(s.bound, source{pos: p, slot: -1, val: t.Const})
			case ok && sl < earlier:
				s.bound = append(s.bound, source{pos: p, slot: sl})
			case ok:
				s.checks = append(s.checks, slotAt{p, sl})
			default:
				slot[t.Var] = len(slot)
				s.binds = append(s.binds, slotAt{p, len(slot) - 1})
				bindings = append(bindings, binding{slot: len(slot) - 1, step: len(pl.steps), pos: p})
			}
		}
		pl.steps = append(pl.steps, s)
	}
	for _, t := range q.Head {
		pl.head = append(pl.head, bindings[slot[t.Var]])
	}
	pl.slots = len(slot)
	return pl
}

// buildIndex buckets the relation's tuples, all, by their values at the
// bound positions. A step with no bound positions has one bucket of
// every row, under the empty key.
func (s *step) buildIndex(all []relation.Tuple) {
	s.all = all
	s.next = make([]int32, len(all))
	var key relation.Tuple
	var last []int32 // of each bucket
	for i, t := range all {
		s.next[i] = -1
		key = s.keyOf(key[:0], t)
		h := key.Hash()
		b, slot := s.bucket(key, h)
		if b < 0 {
			s.first = append(s.first, int32(i))
			last = append(last, int32(i))
			s.index.Insert(slot, int32(len(s.first)-1), h, s.bucketHash)
			continue
		}
		s.next[last[b]] = int32(i)
		last[b] = int32(i)
	}
}

// bucket returns the bucket whose rows hold key at the bound positions,
// or -1 and the empty slot where a bucket for key belongs; h is
// key.Hash().
func (s *step) bucket(key relation.Tuple, h uint64) (int32, int) {
	return s.index.Find(h, func(b int32) bool {
		t := s.all[s.first[b]]
		for k, bd := range s.bound {
			if t[bd.pos] != key[k] {
				return false
			}
		}
		return true
	})
}

// keyOf appends t's values at the bound positions to dst.
func (s *step) keyOf(dst, t relation.Tuple) relation.Tuple {
	for _, b := range s.bound {
		dst = append(dst, t[b.pos])
	}
	return dst
}

// bucketHash hashes bucket b's key.
func (s *step) bucketHash(b int32) uint64 {
	var buf [4]relation.Value
	return s.keyOf(buf[:0], s.all[s.first[b]]).Hash()
}

// ExplainPlan reports the compiled plan of the query over this instance,
// one step per line in join order with the relation cardinalities and how
// many positions are bound when the step is reached — the EXPLAIN
// counterpart for debugging slow workloads.
func ExplainPlan(q *Query, db *relation.Instance) (string, error) {
	if err := q.Validate(InstanceSchemas(db)); err != nil {
		return "", err
	}
	var b strings.Builder
	for i, s := range compile(q, db).steps {
		a := q.Body[s.atom]
		fmt.Fprintf(&b, "%d. %s  (|%s|=%d, %d/%d positions bound)\n",
			i+1, a, a.Relation, s.rel.Len(), len(s.bound), len(a.Terms))
	}
	return b.String(), nil
}
