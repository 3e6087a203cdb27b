package relation

import (
	"math/rand"
	"testing"
)

// TestTableAgainstOracle drives a Table through inserts, finds and
// deletes against a map oracle under injected hashes that crowd every id
// into the last slots, so probe runs wrap past the table's end and
// deletes land in the middle of runs. An id's key is the id itself.
func TestTableAgainstOracle(t *testing.T) {
	hashes := []struct {
		name string
		hash func(id int32) uint64
	}{
		// Every id has one home slot, the last one, at every size.
		{"one-home", func(int32) uint64 { return ^uint64(0) }},
		// Three homes, the last three slots: a later entry whose home
		// lies past the hole must stay put when an earlier one goes.
		{"three-homes", func(id int32) uint64 { return ^uint64(id % 3) }},
	}
	for _, hc := range hashes {
		t.Run(hc.name, func(t *testing.T) {
			var tab Table
			oracle := map[int32]bool{}
			find := func(id int32) (int32, int) {
				return tab.Find(hc.hash(id), func(got int32) bool { return got == id })
			}
			check := func(step int) {
				t.Helper()
				if tab.Len() != len(oracle) {
					t.Fatalf("step %d: Len %d, oracle %d", step, tab.Len(), len(oracle))
				}
				used := 0
				for _, s := range tab.slots {
					if s != 0 {
						used++
					}
				}
				if used != len(oracle) || 2*used > len(tab.slots) {
					t.Fatalf("step %d: %d used slots of %d, oracle %d", step, used, len(tab.slots), len(oracle))
				}
				for id := int32(0); id < 64; id++ {
					got, _ := find(id)
					if (got >= 0) != oracle[id] || (got >= 0 && got != id) {
						t.Fatalf("step %d: Find(%d) = %d, oracle has it: %v", step, id, got, oracle[id])
					}
				}
			}
			rng := rand.New(rand.NewSource(1))
			wrapped, midRun := false, false
			for step := range 4000 {
				id := int32(rng.Intn(64))
				got, slot := find(id)
				if oracle[id] {
					// The run goes on past the slot: the delete shifts.
					mask := len(tab.slots) - 1
					if tab.slots[(slot+1)&mask] != 0 {
						midRun = true
					}
					tab.Delete(slot, hc.hash)
					delete(oracle, id)
				} else {
					if got >= 0 {
						t.Fatalf("step %d: Find(%d) found %d before its insert", step, id, got)
					}
					if slot < int(hc.hash(id))&max(len(tab.slots)-1, 0) {
						wrapped = true
					}
					tab.Insert(slot, id, hc.hash(id), hc.hash)
					oracle[id] = true
				}
				check(step)
			}
			if !wrapped || !midRun {
				t.Errorf("wrapped %v, deleted mid-run %v: the sequence missed a case", wrapped, midRun)
			}
		})
	}
}
