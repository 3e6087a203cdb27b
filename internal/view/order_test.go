package view_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// orderDigest hashes every observable order of a materialized view set:
// the answers and their derivations in first-derived order, the base
// tuple behind every tuple id and the key rank of every ref id.
func orderDigest(t *testing.T, w *workload.Workload) string {
	t.Helper()
	views, err := view.Materialize(w.Queries, w.DB)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, v := range views {
		fmt.Fprintf(h, "view %d\n", v.Index)
		res := v.Result
		for a := range res.NumAnswers() {
			fmt.Fprintf(h, "%s\n", res.Tuple(a).Encode())
			lo, hi := res.Derivations(a)
			for d := lo; d < hi; d++ {
				writeDerivation(h, res, d)
			}
		}
	}
	idx := view.BuildIndex(views)
	for i := 0; i < idx.NumTuples(); i++ {
		fmt.Fprintf(h, "t%d %s\n", i, idx.Tuple(int32(i)).Key())
	}
	for r := 0; r < idx.NumRefs(); r++ {
		fmt.Fprintf(h, "r%d %d\n", r, idx.RefRank(int32(r)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeDerivation writes derivation d's base tuples in body order.
func writeDerivation(h hash.Hash, res *cq.Result, d int) {
	for i := range res.Rows(d) {
		fmt.Fprintf(h, " %s", res.TupleID(d, i).Key())
	}
	fmt.Fprintln(h)
}

// TestMaterializeOrderPinned pins answer, derivation, tuple id and ref
// rank order on Fig. 1 and bench/load's four instances: a change to the
// evaluator or the index that reorders any of them fails here, even when
// every answer stays correct.
func TestMaterializeOrderPinned(t *testing.T) {
	np := workload.Bibliography(workload.BibliographyConfig{Seed: 7, Authors: 200, Journals: 30, Topics: 12, PapersPerAuthor: 4, TopicsPerJournal: 3})
	np.Queries = []*cq.Query{
		cq.MustParse("Pub(x, y, z) :- Author(x, y), Journal(y, z, w)"),
		cq.MustParse("PubT(x, z) :- Author(x, y), Journal(y, z, w)"),
	}
	for _, tc := range []struct {
		name string
		w    *workload.Workload
		want string
	}{
		{"fig1", workload.Fig1(), "62690363e3ee518c339f2377f02969e880d7023a2467e33655e21b90d2018cba"},
		{"chain", workload.Chain(workload.ChainConfig{Seed: 7, Length: 6, Domain: 4, RowsPerRelation: 200, Queries: 5, MaxSpan: 3}), "8deaaada6b4ba154858e52ad0ca5f1d99268a72c14c1f5d2a22d27f2e85d97ac"},
		{"bibliography", workload.Bibliography(workload.BibliographyConfig{Seed: 7, Authors: 60, Journals: 12, Topics: 8, PapersPerAuthor: 4, TopicsPerJournal: 3}), "aefd33e8e6d19faea1a812c9a97c54feb13a06aa9238efc4a08c700459f64509"},
		{"pivot", workload.Pivot(workload.PivotConfig{Seed: 7, Roots: 200, ChildrenPerRoot: 3, GrandPerChild: 2, Depth3: true}), "b6c692c373ca7814bc17b7fc9a0646dfb4c689612cc0257d5c9d6e7e9bbdd113"},
		{"bibliography-np", np, "1427457f3eb10259d35bc9273df97131f74a6d51d104a094755544491e1454b9"},
	} {
		if got := orderDigest(t, tc.w); got != tc.want {
			t.Errorf("%s: order digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
