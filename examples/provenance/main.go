// Provenance walks the lineage side of deletion propagation (Section V's
// why/where-provenance connection): explain where a suspicious view tuple
// came from, see which other view tuples any candidate deletion would
// take down, and watch the views react to deletions incrementally.
package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"

	"delprop/internal/lineage"
	"delprop/internal/relation"
	"delprop/internal/view"
	"delprop/internal/workload"
)

func main() {
	w := workload.Fig1()
	views, err := view.Materialize(w.Queries, w.DB)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Why/where-provenance of the suspicious answer (John, XML).
	ref := view.TupleRef{View: 0, Tuple: relation.Tuple{"John", "XML"}}
	rep, err := lineage.Explain(views, ref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)

	// 2. Forward direction: what else would each candidate deletion
	// destroy?
	idx := view.BuildIndex(views)
	fmt.Println("\nimpact of candidate deletions:")
	for _, wit := range rep.Why {
		for _, id := range wit {
			affected := lineage.AffectedBy(idx, id)
			fmt.Printf("  deleting %-20s affects %d view tuples: %v\n", id, len(affected), affected)
		}
	}

	// 3. Incremental maintenance: apply deletions one by one and watch
	// view tuples die (and come back on rollback).
	fmt.Println("\nincremental maintenance:")
	// The maintainer speaks dense ids; the index converts at the edge,
	// listing view tuples in TupleRef.Key order.
	m := idx.NewMaintainer()
	refs := func(ids []int32) []view.TupleRef {
		slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(idx.RefRank(a), idx.RefRank(b)) })
		out := make([]view.TupleRef, len(ids))
		for i, r := range ids {
			out[i] = idx.Ref(r)
		}
		return out
	}
	steps := []relation.TupleID{
		{Relation: "T1", Tuple: relation.Tuple{"John", "TKDE"}},
		{Relation: "T1", Tuple: relation.Tuple{"John", "TODS"}},
	}
	var cuts []view.Cut
	for _, id := range steps {
		t, _ := idx.LookupTuple(id)
		// AppendCuts previews the deletion: Kills marks the view tuples
		// it destroys.
		var killed []int32
		cuts = m.AppendCuts(cuts[:0], t)
		for _, c := range cuts {
			if c.Kills {
				killed = append(killed, c.Ref)
			}
		}
		m.Delete(t)
		died := refs(killed)
		fmt.Printf("  delete %s -> %d view tuples died: %v\n", id, len(died), died)
	}
	fmt.Printf("  dead total: %d\n", m.DeadCount())
	last, _ := idx.LookupTuple(steps[1])
	var dead []int32
	for r := int32(0); r < int32(idx.NumRefs()); r++ {
		if !m.Alive(r) {
			dead = append(dead, r)
		}
	}
	m.Undelete(last)
	var revived []int32
	for _, r := range dead {
		if m.Alive(r) {
			revived = append(revived, r)
		}
	}
	fmt.Printf("  rollback %s -> revived: %v\n", steps[1], refs(revived))
}
