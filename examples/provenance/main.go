// Provenance walks the lineage side of deletion propagation (Section V's
// why/where-provenance connection): explain where a suspicious view tuple
// came from, see which other view tuples any candidate deletion would
// take down, and watch the views react to deletions incrementally.
package main

import (
	"fmt"
	"log"

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
	// The maintainer speaks dense ids; the index converts at the edge.
	m := idx.NewMaintainer()
	refs := func(ids []int32) []view.TupleRef {
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
	for _, id := range steps {
		t, _ := idx.LookupTuple(id)
		died := refs(m.Delete(t))
		fmt.Printf("  delete %s -> %d view tuples died: %v\n", id, len(died), died)
	}
	fmt.Printf("  dead total: %d\n", m.DeadCount())
	last, _ := idx.LookupTuple(steps[1])
	fmt.Printf("  rollback %s -> revived: %v\n", steps[1], refs(m.Undelete(last)))
}
