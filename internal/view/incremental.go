package view

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
// it speaks tuple ids and ref ids. AppendCuts asks what deleting a tuple
// would do without applying it, so a caller scoring many candidates
// against one state, as greedy does, reads the counters and never
// mutates or rolls back.
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

// Cut is what deleting one base tuple would do to one view tuple with an
// alive derivation through it.
type Cut struct {
	Ref int32 // ref id
	// Derivs is how many of the ref's alive derivations the tuple occurs
	// in.
	Derivs int32
	// Kills reports whether those are all the derivations the ref has
	// left, so deleting the tuple would destroy the view tuple.
	Kills bool
}

// AppendCuts appends to dst, in ascending ref id order, what deleting
// tuple t would do to each view tuple with an alive derivation through
// it, and returns the extended slice. It walks t's occurrence run like
// Index.AppendOccurrences but counts only alive derivations, and it only
// reads the maintainer: calls may run concurrently while no Delete or
// Undelete does. A deleted t cuts nothing.
func (m *Maintainer) AppendCuts(dst []Cut, t int32) []Cut {
	x := m.idx
	run := x.occDeriv[x.occStart[t]:x.occStart[t+1]]
	for i := 0; i < len(run); {
		r := x.derivRef[run[i]]
		var n int32
		for ; i < len(run) && x.derivRef[run[i]] == r; i++ {
			if m.derivHit[run[i]] == 0 {
				n++
			}
		}
		if n > 0 {
			dst = append(dst, Cut{Ref: r, Derivs: n, Kills: n == m.derivAlive[r]})
		}
	}
	return dst
}

// Alive reports whether ref r currently survives.
func (m *Maintainer) Alive(r int32) bool { return m.derivAlive[r] > 0 }

// AliveDerivations returns how many derivations of ref r still survive.
func (m *Maintainer) AliveDerivations(r int32) int { return int(m.derivAlive[r]) }

// DeadCount returns the number of destroyed view tuples.
func (m *Maintainer) DeadCount() int { return m.dead }
