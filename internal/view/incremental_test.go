package view

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

func TestMaintainerBasics(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	idx := BuildIndex(views)
	m := idx.NewMaintainer()

	johnXML := mustRef(t, idx, TupleRef{View: 0, Tuple: tup("John", "XML")})
	if !m.Alive(johnXML) {
		t.Fatal("fresh maintainer reports dead tuple")
	}
	// Kill one derivation: still alive.
	died := flipped(m, func() { m.Delete(mustTuple(t, idx, relation.TupleID{Relation: "T1", Tuple: tup("John", "TKDE")})) })
	// John/CUBE dies (single derivation via TKDE); John/XML survives via
	// TODS.
	if len(died) != 1 || idx.Ref(died[0]).Tuple.String() != "(John,CUBE)" {
		t.Errorf("died = %v", died)
	}
	if !m.Alive(johnXML) {
		t.Error("John/XML should survive one derivation loss")
	}
	// Kill the second derivation.
	tods := mustTuple(t, idx, relation.TupleID{Relation: "T1", Tuple: tup("John", "TODS")})
	died = flipped(m, func() { m.Delete(tods) })
	if len(died) != 1 || died[0] != johnXML {
		t.Errorf("died = %v", died)
	}
	if m.Alive(johnXML) {
		t.Error("John/XML should be dead")
	}
	if m.DeadCount() != 2 || m.DeletedCount() != 2 {
		t.Errorf("counts = %d dead, %d deleted", m.DeadCount(), m.DeletedCount())
	}
	// Idempotent delete.
	if got := flipped(m, func() { m.Delete(tods) }); got != nil || m.DeadCount() != 2 {
		t.Errorf("re-delete flipped %v, %d dead", got, m.DeadCount())
	}
}

func TestMaintainerUndelete(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	idx := BuildIndex(views)
	m := idx.NewMaintainer()
	id1 := mustTuple(t, idx, relation.TupleID{Relation: "T1", Tuple: tup("John", "TKDE")})
	id2 := mustTuple(t, idx, relation.TupleID{Relation: "T1", Tuple: tup("John", "TODS")})
	m.Delete(id1)
	m.Delete(id2)
	revived := flipped(m, func() { m.Undelete(id2) })
	if len(revived) != 1 || idx.Ref(revived[0]).Tuple.String() != "(John,XML)" {
		t.Errorf("revived = %v", revived)
	}
	if !m.Alive(mustRef(t, idx, TupleRef{View: 0, Tuple: tup("John", "XML")})) {
		t.Error("John/XML not alive after undelete")
	}
	// Undelete of never-deleted tuple is a no-op.
	if got := flipped(m, func() { m.Undelete(mustTuple(t, idx, relation.TupleID{Relation: "T1", Tuple: tup("Joe", "TKDE")})) }); got != nil {
		t.Errorf("no-op undelete flipped %v", got)
	}
	// Full rollback restores everything.
	m.Undelete(id1)
	if m.DeadCount() != 0 || m.DeletedCount() != 0 {
		t.Errorf("counts after rollback: %d dead, %d deleted", m.DeadCount(), m.DeletedCount())
	}
}

// TestMaintainerUnknownRef: a view tuple that is not an answer has no ref
// id, so no maintainer can report it alive.
func TestMaintainerUnknownRef(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	idx := BuildIndex(views)
	if _, ok := idx.LookupRef(TupleRef{View: 0, Tuple: tup("Nobody", "X")}); ok {
		t.Error("unknown ref has a ref id")
	}
}

// TestMaintainerMatchesReEvaluation drives a random delete/undelete
// sequence and cross-checks every view tuple's liveness against full
// re-evaluation after every step.
func TestMaintainerMatchesReEvaluation(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}
	views, _ := Materialize(qs, db)
	idx := BuildIndex(views)
	m := idx.NewMaintainer()
	all := db.AllTuples()
	rng := rand.New(rand.NewSource(99))
	deleted := map[string]relation.TupleID{}
	for step := 0; step < 60; step++ {
		id := all[rng.Intn(len(all))]
		if _, isDel := deleted[id.Key()]; isDel && rng.Intn(2) == 0 {
			m.Undelete(mustTuple(t, idx, id))
			delete(deleted, id.Key())
		} else {
			m.Delete(mustTuple(t, idx, id))
			deleted[id.Key()] = id
		}
		// Cross-check against re-evaluation.
		var delList []relation.TupleID
		for _, d := range deleted {
			delList = append(delList, d)
		}
		sort.Slice(delList, func(i, j int) bool { return delList[i].Key() < delList[j].Key() })
		db2 := db.Without(delList)
		for _, v := range views {
			res2 := cq.MustEvaluate(v.Query, db2)
			for _, ans := range v.Result.Answers() {
				ref := TupleRef{View: v.Index, Tuple: ans.Tuple}
				if got, want := m.Alive(mustRef(t, idx, ref)), res2.Contains(ans.Tuple); got != want {
					t.Fatalf("step %d: %s alive=%v, reeval=%v (deleted %v)", step, ref, got, want, delList)
				}
			}
		}
	}
}

// recountDB is a random two-relation instance whose projecting queries
// give view tuples many derivations.
func recountDB(rng *rand.Rand) *relation.Instance {
	db := relation.NewInstance(
		relation.MustSchema("A", []string{"k", "v"}, []int{0, 1}),
		relation.MustSchema("B", []string{"v", "w"}, []int{0, 1}),
	)
	for i := 0; i < 30; i++ {
		a, b := fmt.Sprint(rng.Intn(6)), fmt.Sprint(rng.Intn(6))
		db.Relation("A").Insert(tup(a, b))
		db.Relation("B").Insert(tup(b, fmt.Sprint(rng.Intn(6))))
	}
	return db
}

// TestMaintainerMatchesRecount drives random Delete/Undelete sequences
// over 12 multi-derivation views (so view index "10|…" sorts before
// "2|…") and after every step compares Alive, AliveDerivations and
// DeadCount with a from-scratch recount over the views' derivations.
// Before every Delete, AppendCuts must name, in ascending ref order,
// exactly the refs the deletion then costs alive derivations, with how
// many, and mark as Kills exactly the ones that die.
func TestMaintainerMatchesRecount(t *testing.T) {
	shapes := []string{
		"Q(x) :- A(x, y), B(y, z)",
		"Q(z) :- A(x, y), B(y, z)",
		"Q(y) :- A(x, y)",
		"Q(x, z) :- A(x, y), B(y, z)",
		"Q(x) :- A(x, y), A(y, z)",
		"Q(x, y, z) :- A(x, y), B(y, z)",
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := recountDB(rng)
		var qs []*cq.Query
		for i := 0; i < 12; i++ {
			qs = append(qs, cq.MustParse(shapes[i%len(shapes)]))
		}
		views, err := Materialize(qs, db)
		if err != nil {
			t.Fatal(err)
		}
		idx := BuildIndex(views)
		m := idx.NewMaintainer()
		all := db.AllTuples()
		deleted := map[string]bool{}
		before := make([]int, idx.NumRefs()) // the last step's recount
		for r := range before {
			before[r] = m.AliveDerivations(int32(r))
		}
		var cuts []Cut
		for step := 0; step < 80; step++ {
			id := all[rng.Intn(len(all))]
			ti, ok := idx.LookupTuple(id)
			if !ok {
				continue
			}
			var cut map[int32]Cut // nil on an Undelete step
			if deleted[id.Key()] && rng.Intn(2) == 0 {
				m.Undelete(ti)
				delete(deleted, id.Key())
			} else {
				cuts = m.AppendCuts(cuts[:0], ti)
				cut = map[int32]Cut{}
				for i, c := range cuts {
					if i > 0 && cuts[i-1].Ref >= c.Ref {
						t.Fatalf("seed %d step %d: cuts not in ascending ref order: %v", seed, step, cuts)
					}
					cut[c.Ref] = c
				}
				m.Delete(ti)
				deleted[id.Key()] = true
			}
			dead := 0
			for _, v := range views {
				for _, ans := range v.Result.Answers() {
					ref := TupleRef{View: v.Index, Tuple: ans.Tuple}
					r := mustRef(t, idx, ref)
					alive := 0
					for _, d := range ans.Derivations() {
						hit := false
						for _, id := range d {
							hit = hit || deleted[id.Key()]
						}
						if !hit {
							alive++
						}
					}
					if alive == 0 {
						dead++
					}
					if got := m.AliveDerivations(r); got != alive {
						t.Fatalf("seed %d step %d: %s AliveDerivations=%d, recount %d", seed, step, ref, got, alive)
					}
					if m.Alive(r) != (alive > 0) {
						t.Fatalf("seed %d step %d: %s Alive=%v, recount %d derivations", seed, step, ref, m.Alive(r), alive)
					}
					died := before[r] > 0 && alive == 0
					if c := cut[r]; cut != nil && (before[r]-alive != int(c.Derivs) || c.Kills != died) {
						t.Fatalf("seed %d step %d: %s lost %d derivations (died %v), AppendCuts said %+v", seed, step, ref, before[r]-alive, died, c)
					}
					before[r] = alive
				}
			}
			if m.DeadCount() != dead {
				t.Fatalf("seed %d step %d: DeadCount=%d, recount %d", seed, step, m.DeadCount(), dead)
			}
			if m.DeletedCount() != len(deleted) {
				t.Fatalf("seed %d step %d: DeletedCount=%d, want %d", seed, step, m.DeletedCount(), len(deleted))
			}
		}
	}
}

// indexViews materializes, over recountDB(rng), the views the index tests
// share: a projecting join, the same join unprojected, and a projecting
// self-join.
func indexViews(t *testing.T, rng *rand.Rand) (*relation.Instance, []*View) {
	t.Helper()
	db := recountDB(rng)
	views, err := Materialize([]*cq.Query{
		cq.MustParse("Q(x) :- A(x, y), B(y, z)"),
		cq.MustParse("Q(x, y, z) :- A(x, y), B(y, z)"),
		cq.MustParse("Q(x) :- A(x, y), A(y, z)"),
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	return db, views
}

// TestIndexKeyOrderAndDerivationTuples: tuple ids ascend in TupleID.Key
// order, each derivation's run in the derivation → tuple CSR is the
// key-sorted keys of its Derivation.TupleSet, and AtomTuple resolves
// every atom's row to the tuple id of the atom's base tuple.
func TestIndexKeyOrderAndDerivationTuples(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		_, views := indexViews(t, rand.New(rand.NewSource(seed)))
		idx := BuildIndex(views)
		for ti := int32(1); ti < int32(idx.NumTuples()); ti++ {
			if a, b := idx.Tuple(ti-1).Key(), idx.Tuple(ti).Key(); a >= b {
				t.Fatalf("seed %d: tuple %d key %q, tuple %d key %q", seed, ti-1, a, ti, b)
			}
		}
		for r := int32(0); r < int32(idx.NumRefs()); r++ {
			ref := idx.Ref(r)
			ans, _ := views[ref.View].Result.Lookup(ref.Tuple)
			lo, hi := idx.Derivations(r)
			if int(hi-lo) != len(ans.Derivations()) {
				t.Fatalf("seed %d %s: %d derivation ids, %d derivations", seed, ref, hi-lo, len(ans.Derivations()))
			}
			for i, d := range ans.Derivations() {
				var want, got []string
				for _, id := range d {
					if k := id.Key(); !slices.Contains(want, k) {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				for _, ti := range idx.DerivTuples(lo + int32(i)) {
					got = append(got, idx.Tuple(ti).Key())
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d %s derivation %d: CSR run %v, want %v", seed, ref, i, got, want)
				}
				for j, id := range d {
					if got := idx.AtomTuple(lo+int32(i), j); idx.Tuple(got).Key() != id.Key() {
						t.Fatalf("seed %d %s derivation %d atom %d: AtomTuple is %s, want %s", seed, ref, i, j, idx.Tuple(got), id)
					}
				}
			}
		}
	}
}

// TestIndexKilledMatchesSurvives: Killed returns, ascending, exactly the
// view tuples Survives declares dead, for random deletion lists with
// duplicates.
func TestIndexKilledMatchesSurvives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, views := indexViews(t, rng)
	idx := BuildIndex(views)
	all := db.AllTuples()
	for trial := 0; trial < 200; trial++ {
		var ids []relation.TupleID
		var tids []int32
		for n := rng.Intn(8); n > 0; n-- {
			id := all[rng.Intn(len(all))]
			ids = append(ids, id)
			if ti, ok := idx.LookupTuple(id); ok {
				tids = append(tids, ti, ti)
			}
		}
		set := DeletedSet(ids)
		var want []int32
		for _, v := range views {
			for _, ans := range v.Result.Answers() {
				if !Survives(ans, set) {
					want = append(want, mustRef(t, idx, TupleRef{View: v.Index, Tuple: ans.Tuple}))
				}
			}
		}
		if got := idx.Killed(tids); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Killed(%v) = %v, want %v", trial, ids, got, want)
		}
	}
}

// DeletedCount returns the number of applied source deletions.
func (m *Maintainer) DeletedCount() int {
	n := 0
	for _, d := range m.deleted {
		if d {
			n++
		}
	}
	return n
}

// flipped runs op, a Delete or Undelete on m, and returns the refs whose
// liveness it changed, sorted by TupleRef.Key (nil if none): the refs a
// Delete killed or an Undelete revived.
func flipped(m *Maintainer, op func()) []int32 {
	before := make([]bool, m.idx.NumRefs())
	for r := range before {
		before[r] = m.Alive(int32(r))
	}
	op()
	var out []int32
	for r, was := range before {
		if m.Alive(int32(r)) != was {
			out = append(out, int32(r))
		}
	}
	slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(m.idx.RefRank(a), m.idx.RefRank(b)) })
	return out
}
