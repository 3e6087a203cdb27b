package cq

import (
	"fmt"
	"sort"
)

// This file implements the Chandra–Merlin machinery the paper's complexity
// lineage starts from (reference [9]): homomorphisms between conjunctive
// queries and minimization (core computation).
// The classifiers can minimize a query first so that structural properties
// are judged on its core rather than on redundant atoms.

// Homomorphism is a mapping from the variables of one query to the terms
// of another.
type Homomorphism map[string]Term

// FindHomomorphism searches for a homomorphism from `from` onto `to`: a
// variable mapping under which every atom of `from` becomes an atom of
// `to` and the head of `from` becomes the head of `to` position-wise. By
// the Chandra–Merlin theorem, its existence is equivalent to the
// containment to ⊆ from.
func FindHomomorphism(from, to *Query) (Homomorphism, bool) {
	if len(from.Head) != len(to.Head) {
		return nil, false
	}
	h := Homomorphism{}
	// Head constraint: from.Head[i] must map to to.Head[i].
	for i, t := range from.Head {
		target := to.Head[i]
		if !t.IsVar() {
			if target.IsVar() || target.Const != t.Const {
				return nil, false
			}
			continue
		}
		if prev, ok := h[t.Var]; ok {
			if prev != target {
				return nil, false
			}
			continue
		}
		h[t.Var] = target
	}
	if mapAtoms(from.Body, 0, to, h) {
		return h, true
	}
	return nil, false
}

// mapAtoms extends h to map from.Body[i:] into atoms of `to`.
func mapAtoms(body []Atom, i int, to *Query, h Homomorphism) bool {
	if i == len(body) {
		return true
	}
	a := body[i]
	for _, b := range to.Body {
		if b.Relation != a.Relation || len(b.Terms) != len(a.Terms) {
			continue
		}
		// Try unifying a -> b under h.
		var bound []string
		ok := true
		for p, t := range a.Terms {
			want := b.Terms[p]
			if !t.IsVar() {
				if want.IsVar() || want.Const != t.Const {
					ok = false
					break
				}
				continue
			}
			if cur, have := h[t.Var]; have {
				if cur != want {
					ok = false
					break
				}
				continue
			}
			h[t.Var] = want
			bound = append(bound, t.Var)
		}
		if ok && mapAtoms(body, i+1, to, h) {
			return true
		}
		for _, v := range bound {
			delete(h, v)
		}
	}
	return false
}

// Minimize computes the core of the query: a minimal equivalent subquery
// obtained by repeatedly dropping atoms whose removal preserves
// equivalence. The result is a fresh query; the input is not modified.
// Head variables are always preserved (an atom whose removal would unbind
// a head variable cannot be dropped, which the equivalence test enforces
// automatically).
func Minimize(q *Query) *Query {
	cur := q.Clone()
	for {
		removed := false
		for i := range cur.Body {
			if len(cur.Body) == 1 {
				break
			}
			cand := &Query{Name: cur.Name, Head: cur.Head}
			cand.Body = append(append([]Atom(nil), cur.Body[:i]...), cur.Body[i+1:]...)
			// Safety: every head variable must still occur.
			if !headSafe(cand) {
				continue
			}
			// cand ⊆ cur always (fewer atoms is weaker... actually more
			// answers); equivalence needs a homomorphism from cur into
			// cand fixing the head.
			if _, ok := FindHomomorphism(cur, cand); ok {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

func headSafe(q *Query) bool {
	vars := make(map[string]bool)
	for _, v := range q.BodyVars() {
		vars[v] = true
	}
	for _, t := range q.Head {
		if t.IsVar() && !vars[t.Var] {
			return false
		}
	}
	return true
}

// String renders the homomorphism deterministically for debugging.
func (h Homomorphism) String() string {
	out := "{"
	first := true
	for _, v := range sortedKeys(h) {
		if !first {
			out += ", "
		}
		first = false
		out += fmt.Sprintf("%s↦%s", v, h[v])
	}
	return out + "}"
}

func sortedKeys(h Homomorphism) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
