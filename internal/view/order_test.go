package view_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
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
			fmt.Fprintf(h, "%s\n", res.Tuple(a).AppendEncode(nil))
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

// TestIndexOrderOracle: on random instances, tuple ids ascend in
// TupleID.Key string order and RefRank is each ref's position among the
// sorted TupleRef.Key strings. The instances mix value lengths whose
// decimal prefixes interleave ("9" against "10"), empty and non-ASCII
// values, relation names that prefix each other (R, R1, R_x) or contain
// "|" (R|1, whose tuples interleave with R's in key order), body
// constants, repeated head variables and self-joins. cq.Validate rejects
// head constants, so constants appear in bodies only.
func TestIndexOrderOracle(t *testing.T) {
	values := []string{"", "1", "9", "10", "11", "100", "a", "ab", "é", "\xff", "ü1", "zz", "Z", "x|y", "1234567890"}
	schemas := []*relation.Schema{
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("R1", []string{"a", "b", "c"}, []int{0, 1}),
		relation.MustSchema("R_x", []string{"a", "b"}, []int{0}),
		relation.MustSchema("R|1", []string{"a", "b"}, []int{0, 1}),
	}
	v, c := cq.V, cq.C
	atom := func(rel string, terms ...cq.Term) cq.Atom { return cq.Atom{Relation: rel, Terms: terms} }
	pool := []*cq.Query{
		{Name: "Q", Head: []cq.Term{v("x"), v("y")}, Body: []cq.Atom{atom("R", v("x"), v("y"))}},
		{Name: "Q", Head: []cq.Term{v("x"), v("x")}, Body: []cq.Atom{atom("R", v("x"), v("y"))}},
		{Name: "Q", Head: []cq.Term{v("z"), v("x")}, Body: []cq.Atom{atom("R", v("x"), v("y")), atom("R", v("y"), v("z"))}},
		{Name: "Q", Head: []cq.Term{v("y")}, Body: []cq.Atom{atom("R1", v("x"), v("y"), c("9")), atom("R_x", v("y"), v("w"))}},
		{Name: "Q", Head: []cq.Term{v("y"), v("x"), v("y")}, Body: []cq.Atom{atom("R_x", v("x"), v("y")), atom("R|1", v("y"), v("z"))}},
		{Name: "Q", Head: []cq.Term{v("b"), v("a")}, Body: []cq.Atom{atom("R|1", v("a"), v("b")), atom("R", v("a"), v("b"))}},
		{Name: "Q", Head: []cq.Term{v("a")}, Body: []cq.Atom{atom("R1", v("a"), v("b"), v("b")), atom("R1", v("b"), v("a"), v("d"))}},
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		db := relation.NewInstance(schemas...)
		for range 20 + rng.Intn(60) {
			s := schemas[rng.Intn(len(schemas))]
			tup := make(relation.Tuple, s.Arity())
			for i := range tup {
				tup[i] = relation.Value(values[rng.Intn(len(values))])
			}
			_ = db.Insert(s.Name, tup) // key collisions and duplicates are skipped
		}
		var queries []*cq.Query
		for range 1 + rng.Intn(12) {
			q := *pool[rng.Intn(len(pool))]
			q.Name = fmt.Sprintf("Q%d", len(queries))
			queries = append(queries, &q)
		}
		views, err := view.Materialize(queries, db)
		if err != nil {
			t.Fatal(err)
		}
		idx := view.BuildIndex(views)
		for i := 1; i < idx.NumTuples(); i++ {
			if a, b := idx.Tuple(int32(i-1)).Key(), idx.Tuple(int32(i)).Key(); a >= b {
				t.Fatalf("trial %d: tuple %d has key %q, tuple %d %q", trial, i-1, a, i, b)
			}
		}
		keys := make([]string, idx.NumRefs())
		for r := range keys {
			keys[r] = idx.Ref(int32(r)).Key()
		}
		sorted := slices.Clone(keys)
		sort.Strings(sorted)
		for r, k := range keys {
			if want, _ := slices.BinarySearch(sorted, k); idx.RefRank(int32(r)) != int32(want) {
				t.Fatalf("trial %d: ref %q has rank %d, want %d", trial, k, idx.RefRank(int32(r)), want)
			}
		}
	}
}
