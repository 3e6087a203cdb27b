package view

import (
	"sort"

	"delprop/internal/relation"
)

// Maintainer tracks the live/dead state of every view tuple under a
// growing source deletion, updating incrementally from provenance instead
// of re-evaluating queries: deleting a base tuple kills the derivations it
// participates in, and a view tuple dies when its last derivation does.
// This is the "finding the occurrences of key values of the deleted
// relation tuples in the view" procedure of Section II.C, generalized to
// multi-derivation (non-key-preserving) view tuples via per-derivation
// reference counts.
type Maintainer struct {
	// derivAlive[ref key] = number of still-alive derivations; a view
	// tuple is alive while this is positive (every answer has at least
	// one derivation).
	derivAlive map[string]int
	// derivHit[ref key][derivation index] = number of deleted tuples on
	// that derivation (alive while 0).
	derivHit map[string][]int
	// occ maps base-tuple keys to (ref key, derivation index) pairs.
	occ map[string][]derivRef
	// deleted tracks applied deletions for idempotence.
	deleted map[string]bool
	// refs resolves ref keys back to references.
	refs map[string]TupleRef
	// dead counts view tuples with no alive derivation.
	dead int
}

type derivRef struct {
	refKey string
	deriv  int
}

// NewMaintainer indexes the views for incremental deletion.
func NewMaintainer(views []*View) *Maintainer {
	m := &Maintainer{
		derivAlive: make(map[string]int),
		derivHit:   make(map[string][]int),
		occ:        make(map[string][]derivRef),
		deleted:    make(map[string]bool),
		refs:       make(map[string]TupleRef),
	}
	for _, v := range views {
		for _, ans := range v.Result.Answers() {
			ref := TupleRef{View: v.Index, Tuple: ans.Tuple}
			k := ref.Key()
			m.refs[k] = ref
			m.derivAlive[k] = len(ans.Derivations)
			m.derivHit[k] = make([]int, len(ans.Derivations))
			for di, d := range ans.Derivations {
				for tk := range d.TupleSet() {
					m.occ[tk] = append(m.occ[tk], derivRef{refKey: k, deriv: di})
				}
			}
		}
	}
	return m
}

// Clone returns an independent copy of the maintainer: the clone shares
// the provenance indexes built by NewMaintainer (occ and refs, both
// immutable after construction) and deep-copies the mutable deletion
// state, so Delete/Undelete on the clone never touch the original.
// Parallel greedy scoring hands one clone per worker; cloning is O(state)
// while re-indexing with NewMaintainer is O(provenance).
func (m *Maintainer) Clone() *Maintainer {
	c := &Maintainer{
		derivAlive: make(map[string]int, len(m.derivAlive)),
		derivHit:   make(map[string][]int, len(m.derivHit)),
		occ:        m.occ,
		deleted:    make(map[string]bool, len(m.deleted)),
		refs:       m.refs,
		dead:       m.dead,
	}
	for k, v := range m.derivAlive {
		c.derivAlive[k] = v
	}
	for k, hits := range m.derivHit {
		c.derivHit[k] = append([]int(nil), hits...)
	}
	for k := range m.deleted {
		c.deleted[k] = true
	}
	return c
}

// Delete applies one source-tuple deletion and returns the view tuples
// that died as a consequence (empty if none, or if the tuple was already
// deleted).
func (m *Maintainer) Delete(id relation.TupleID) []TupleRef {
	tk := id.Key()
	if m.deleted[tk] {
		return nil
	}
	m.deleted[tk] = true
	var died []string
	for _, dr := range m.occ[tk] {
		hits := m.derivHit[dr.refKey]
		hits[dr.deriv]++
		if hits[dr.deriv] == 1 {
			m.derivAlive[dr.refKey]--
			if m.derivAlive[dr.refKey] == 0 {
				died = append(died, dr.refKey)
			}
		}
	}
	sort.Strings(died)
	m.dead += len(died)
	var out []TupleRef
	for _, k := range died {
		out = append(out, m.refs[k])
	}
	return out
}

// Undelete reverses a prior Delete and returns the view tuples that came
// back to life. Tuples never deleted are a no-op.
func (m *Maintainer) Undelete(id relation.TupleID) []TupleRef {
	tk := id.Key()
	if !m.deleted[tk] {
		return nil
	}
	delete(m.deleted, tk)
	var revived []string
	for _, dr := range m.occ[tk] {
		hits := m.derivHit[dr.refKey]
		hits[dr.deriv]--
		if hits[dr.deriv] == 0 {
			m.derivAlive[dr.refKey]++
			if m.derivAlive[dr.refKey] == 1 {
				revived = append(revived, dr.refKey)
			}
		}
	}
	sort.Strings(revived)
	m.dead -= len(revived)
	var out []TupleRef
	for _, k := range revived {
		out = append(out, m.refs[k])
	}
	return out
}

// Alive reports whether the view tuple currently survives.
func (m *Maintainer) Alive(ref TupleRef) bool {
	return m.derivAlive[ref.Key()] > 0
}

// DeadCount returns the number of destroyed view tuples.
func (m *Maintainer) DeadCount() int { return m.dead }

// DeletedCount returns the number of applied source deletions.
func (m *Maintainer) DeletedCount() int { return len(m.deleted) }

// AliveDerivations returns how many derivations of the view tuple still
// survive (0 when the tuple is dead or unknown).
func (m *Maintainer) AliveDerivations(ref TupleRef) int {
	return m.derivAlive[ref.Key()]
}
