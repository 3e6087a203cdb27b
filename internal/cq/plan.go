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

// step is one atom of the plan. A probe encodes the bound positions'
// values (Value.AppendEncode, in position order) and looks the bytes up in
// buckets; each matching tuple then sets binds and must agree with checks.
type step struct {
	atom   int // position in the query body
	rel    *relation.Relation
	bound  []source // constants and variables of earlier steps
	binds  []slotAt // first occurrence in this atom of a new variable
	checks []slotAt // later occurrences in this atom of a new variable
	// The hash index on the bound positions: rows[start[b]:start[b+1]]
	// holds bucket b's rows, ascending; a row indexes all, the
	// relation's Tuples(). buckets is nil when no position is bound.
	buckets map[string]int32
	start   []int32
	rows    []int32
	all     []relation.Tuple
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
// bound positions. A step with no bound positions gets one bucket, 0, of
// every row and no bucket map: join reads it without a probe.
func (s *step) buildIndex(all []relation.Tuple) {
	s.all = all
	if len(s.bound) == 0 {
		s.start = []int32{0, int32(len(all))}
		s.rows = make([]int32, len(all))
		for i := range s.rows {
			s.rows[i] = int32(i)
		}
		return
	}
	s.buckets = make(map[string]int32)
	bucketOf := make([]int32, len(all))
	s.start = []int32{0}
	var buf []byte
	for i, t := range all {
		buf = buf[:0]
		for _, b := range s.bound {
			buf = t[b.pos].AppendEncode(buf)
		}
		b, ok := s.buckets[string(buf)]
		if !ok {
			b = int32(len(s.buckets))
			s.buckets[string(buf)] = b
			s.start = append(s.start, 0)
		}
		bucketOf[i] = b
		s.start[b+1]++
	}
	for b := 1; b < len(s.start); b++ {
		s.start[b] += s.start[b-1]
	}
	fill := append([]int32(nil), s.start[:len(s.start)-1]...)
	s.rows = make([]int32, len(all))
	for i := range all {
		s.rows[fill[bucketOf[i]]] = int32(i)
		fill[bucketOf[i]]++
	}
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
