package view

import (
	"math/rand"
	"testing"
	"testing/quick"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

// TestSurvivesAntiMonotone: enlarging the deleted set never revives a view
// tuple.
func TestSurvivesAntiMonotone(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}, db)
	all := db.AllTuples()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var small, large []relation.TupleID
		for _, id := range all {
			r := rng.Intn(3)
			if r == 0 {
				small = append(small, id)
			}
			if r <= 1 {
				large = append(large, id)
			}
		}
		large = append(large, small...)
		smallSet, largeSet := DeletedSet(small), DeletedSet(large)
		for _, v := range views {
			for _, ans := range v.Result.Answers() {
				if !Survives(ans, smallSet) && Survives(ans, largeSet) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMaintainerDeleteUndeleteInverse: any delete sequence followed by its
// reverse restores full liveness.
func TestMaintainerDeleteUndeleteInverse(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
	}, db)
	all := db.AllTuples()
	idx := BuildIndex(views)
	f := func(seed int64, n uint8) bool {
		m := idx.NewMaintainer()
		rng := rand.New(rand.NewSource(seed))
		var seq []int32
		for i := 0; i < int(n%12); i++ {
			seq = append(seq, mustTuple(t, idx, all[rng.Intn(len(all))]))
		}
		for _, id := range seq {
			m.Delete(id)
		}
		for i := len(seq) - 1; i >= 0; i-- {
			m.Undelete(seq[i])
		}
		if m.DeadCount() != 0 || m.DeletedCount() != 0 {
			return false
		}
		for r := int32(0); r < int32(idx.NumRefs()); r++ {
			if !m.Alive(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSideEffectPartition: the requested and collateral tuples the
// maintainer reports dying partition the view tuples that Survives
// declares dead.
func TestSideEffectPartition(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
	}, db)
	del := NewDeletion(TupleRef{View: 0, Tuple: tup("John", "XML")})
	all := db.AllTuples()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ids []relation.TupleID
		for _, id := range all {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		req, coll := sideEffect(views, del, ids)
		set := DeletedSet(ids)
		dead := 0
		for _, v := range views {
			for _, ans := range v.Result.Answers() {
				if !Survives(ans, set) {
					dead++
				}
			}
		}
		return len(req)+len(coll) == dead
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
