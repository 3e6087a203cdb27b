package view

import "slices"

// Maintainer tracks the live/dead state of every view tuple under a
// growing source deletion, updating incrementally from provenance instead
// of re-evaluating queries: deleting a base tuple kills the derivations it
// participates in, and a view tuple dies when its last derivation does.
// This is the "finding the occurrences of key values of the deleted
// relation tuples in the view" procedure of Section II.C, generalized to
// multi-derivation (non-key-preserving) view tuples via per-derivation
// reference counts.
//
// A Maintainer is three counter slices over a shared, immutable Index;
// it speaks tuple ids and ref ids.
type Maintainer struct {
	idx *Index
	// derivAlive[r] = number of still-alive derivations of ref r; a view
	// tuple is alive while this is positive (every answer has at least
	// one derivation).
	derivAlive []int32
	// derivHit[d] = number of deleted tuples on derivation d (alive while
	// 0).
	derivHit []int32
	// deleted[t] records applied deletions, for idempotence.
	deleted []bool
	dead    int // refs with no alive derivation
}

// NewMaintainer returns a maintainer with nothing deleted.
func (x *Index) NewMaintainer() *Maintainer {
	m := &Maintainer{
		idx:        x,
		derivAlive: make([]int32, x.NumRefs()),
		derivHit:   make([]int32, len(x.derivRef)),
		deleted:    make([]bool, x.NumTuples()),
	}
	for r := range m.derivAlive {
		m.derivAlive[r] = x.numDerivs(int32(r))
	}
	return m
}

// Clone returns an independent copy of the maintainer: same index, copied
// counters, so Delete/Undelete on the clone never touch the original.
// Parallel greedy scoring hands one clone per worker.
func (m *Maintainer) Clone() *Maintainer {
	return &Maintainer{
		idx:        m.idx,
		derivAlive: slices.Clone(m.derivAlive),
		derivHit:   slices.Clone(m.derivHit),
		deleted:    slices.Clone(m.deleted),
		dead:       m.dead,
	}
}

// Delete applies the deletion of tuple t and returns the refs that died as
// a consequence, ordered by TupleRef.Key (nil if none, or if t was
// already deleted).
func (m *Maintainer) Delete(t int32) []int32 {
	if m.deleted[t] {
		return nil
	}
	m.deleted[t] = true
	x := m.idx
	var died []int32
	for _, d := range x.occDeriv[x.occStart[t]:x.occStart[t+1]] {
		m.derivHit[d]++
		if m.derivHit[d] == 1 {
			r := x.derivRef[d]
			m.derivAlive[r]--
			if m.derivAlive[r] == 0 {
				died = append(died, r)
			}
		}
	}
	m.dead += len(died)
	x.sortByRank(died)
	return died
}

// Undelete reverses a prior Delete of tuple t and returns the refs that
// came back to life, ordered by TupleRef.Key. Tuples never deleted are a
// no-op.
func (m *Maintainer) Undelete(t int32) []int32 {
	if !m.deleted[t] {
		return nil
	}
	m.deleted[t] = false
	x := m.idx
	var revived []int32
	for _, d := range x.occDeriv[x.occStart[t]:x.occStart[t+1]] {
		m.derivHit[d]--
		if m.derivHit[d] == 0 {
			r := x.derivRef[d]
			m.derivAlive[r]++
			if m.derivAlive[r] == 1 {
				revived = append(revived, r)
			}
		}
	}
	m.dead -= len(revived)
	x.sortByRank(revived)
	return revived
}

// Alive reports whether ref r currently survives.
func (m *Maintainer) Alive(r int32) bool { return m.derivAlive[r] > 0 }

// AliveDerivations returns how many derivations of ref r still survive.
func (m *Maintainer) AliveDerivations(r int32) int { return int(m.derivAlive[r]) }

// DeadCount returns the number of destroyed view tuples.
func (m *Maintainer) DeadCount() int { return m.dead }
