package view

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

func tup(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

func fig1DB() *relation.Instance {
	db := relation.NewInstance(
		relation.MustSchema("T1", []string{"AuName", "Journal"}, []int{0, 1}),
		relation.MustSchema("T2", []string{"Journal", "Topic", "Papers"}, []int{0, 1}),
	)
	db.MustInsert("T1", "Joe", "TKDE")
	db.MustInsert("T1", "John", "TKDE")
	db.MustInsert("T1", "Tom", "TKDE")
	db.MustInsert("T1", "John", "TODS")
	db.MustInsert("T2", "TKDE", "XML", "30")
	db.MustInsert("T2", "TKDE", "CUBE", "30")
	db.MustInsert("T2", "TODS", "XML", "30")
	return db
}

func TestMaterialize(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}
	views, err := Materialize(qs, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].Index != 0 || views[1].Index != 1 {
		t.Fatalf("views = %v", views)
	}
	if TotalSize(views) != 13 { // 6 + 7 from Fig 1
		t.Errorf("TotalSize = %d, want 13", TotalSize(views))
	}
	if MaxArity(views) != 3 {
		t.Errorf("MaxArity = %d, want 3", MaxArity(views))
	}
	// Bad query aborts.
	if _, err := Materialize([]*cq.Query{cq.MustParse("Q(x) :- Nope(x)")}, db); err == nil {
		t.Error("Materialize accepted invalid query")
	}
}

func TestMaxArityEmpty(t *testing.T) {
	if MaxArity(nil) != 0 {
		t.Error("MaxArity(nil) != 0")
	}
}

func TestDeletionBasics(t *testing.T) {
	r1 := TupleRef{View: 0, Tuple: tup("John", "XML")}
	r2 := TupleRef{View: 1, Tuple: tup("John", "XML")}
	d := NewDeletion(r1, r1, r2)
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2 (dedup)", d.Len())
	}
	if !d.Contains(r1) || !d.Contains(r2) {
		t.Error("Contains wrong")
	}
	if d.Contains(TupleRef{View: 0, Tuple: tup("x")}) {
		t.Error("Contains false positive")
	}
	if got := d.Refs(); len(got) != 2 || got[0].Key() != r1.Key() {
		t.Errorf("Refs = %v", got)
	}
	pv := d.PerView()
	if len(pv[0]) != 1 || len(pv[1]) != 1 {
		t.Errorf("PerView = %v", pv)
	}
	if !strings.Contains(d.String(), "V0(John,XML)") {
		t.Errorf("String = %q", d.String())
	}
}

// TestTupleRefStringGolden pins the rendered form of a view tuple, which
// response bodies and sorted collateral lists are built from.
func TestTupleRefStringGolden(t *testing.T) {
	long := strings.Repeat("y", 70)
	for _, c := range []struct {
		ref  TupleRef
		want string
	}{
		{TupleRef{View: 0, Tuple: tup("John", "XML")}, "V0(John,XML)"},
		{TupleRef{View: 12, Tuple: tup("a,b", "")}, "V12(a,b,)"},
		{TupleRef{View: -1}, "V-1()"},
		{TupleRef{View: 3, Tuple: tup("日本", long)}, "V3(日本," + long + ")"},
	} {
		if got := c.ref.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestTupleRefKeyDistinctAcrossViews(t *testing.T) {
	a := TupleRef{View: 0, Tuple: tup("x")}
	b := TupleRef{View: 1, Tuple: tup("x")}
	if a.Key() == b.Key() {
		t.Error("TupleRef key collision across views")
	}
}

// TestDeletionValidate: LookupRef is how a request is validated, so it
// must resolve a view tuple and reject a non-answer and a view index out
// of range.
func TestDeletionValidate(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	x := BuildIndex(views)
	if _, ok := x.LookupRef(TupleRef{View: 0, Tuple: tup("John", "XML")}); !ok {
		t.Error("valid deletion rejected")
	}
	for _, bad := range []TupleRef{{View: 0, Tuple: tup("Nobody", "XML")}, {View: 5, Tuple: tup("John", "XML")}, {View: -1, Tuple: tup("John", "XML")}} {
		if _, ok := x.LookupRef(bad); ok {
			t.Errorf("LookupRef(%s) accepted", bad)
		}
	}
}

func TestSurvives(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}, db)
	res := views[0].Result
	johnXML, _ := res.Lookup(tup("John", "XML"))
	// John/XML has derivations via TKDE and TODS; killing only TKDE leaves
	// the TODS derivation alive.
	del := DeletedSet([]relation.TupleID{{Relation: "T1", Tuple: tup("John", "TKDE")}})
	if !Survives(johnXML, del) {
		t.Error("John/XML should survive deleting T1(John,TKDE)")
	}
	del2 := DeletedSet([]relation.TupleID{
		{Relation: "T1", Tuple: tup("John", "TKDE")},
		{Relation: "T1", Tuple: tup("John", "TODS")},
	})
	if Survives(johnXML, del2) {
		t.Error("John/XML should die when both T1 tuples go")
	}
	joeXML, _ := res.Lookup(tup("Joe", "XML"))
	del3 := DeletedSet([]relation.TupleID{{Relation: "T2", Tuple: tup("TKDE", "XML", "30")}})
	if Survives(joeXML, del3) {
		t.Error("Joe/XML should die with T2(TKDE,XML,30)")
	}
}

// TestSurvivesMatchesReEvaluation: provenance-based survival must agree
// with full re-evaluation on D\ΔD, for assorted deletions.
func TestSurvivesMatchesReEvaluation(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}
	views, _ := Materialize(qs, db)
	all := db.AllTuples()
	// Try every single-tuple deletion and a few pairs.
	var deletions [][]relation.TupleID
	for _, id := range all {
		deletions = append(deletions, []relation.TupleID{id})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			deletions = append(deletions, []relation.TupleID{all[i], all[j]})
		}
	}
	for _, del := range deletions {
		set := DeletedSet(del)
		db2 := db.Without(del)
		for vi, v := range views {
			res2 := cq.MustEvaluate(v.Query, db2)
			for _, ans := range v.Result.Answers() {
				got := Survives(ans, set)
				want := res2.Contains(ans.Tuple)
				if got != want {
					t.Fatalf("del=%v view=%d tuple=%v: Survives=%v reeval=%v", del, vi, ans.Tuple, got, want)
				}
			}
		}
	}
}

func TestInvertedIndex(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}
	views, _ := Materialize(qs, db)
	idx := BuildIndex(views)
	// Every base tuple participates in some view tuple here.
	for _, id := range db.AllTuples() {
		if len(idx.AppendOccurrences(nil, mustTuple(t, idx, id))) == 0 {
			t.Errorf("%s has no occurrences", id)
		}
	}
	if idx.NumTuples() != len(db.AllTuples()) || idx.NumRefs() != TotalSize(views) {
		t.Errorf("NumTuples=%d NumRefs=%d", idx.NumTuples(), idx.NumRefs())
	}
	// T1(John,TKDE) occurs in John/XML (non-critical: TODS path exists) and
	// John/CUBE (critical).
	occ := idx.AppendOccurrences(nil, mustTuple(t, idx, relation.TupleID{Relation: "T1", Tuple: tup("John", "TKDE")}))
	if len(occ) != 2 {
		t.Fatalf("occurrences = %v", occ)
	}
	crit := map[string]bool{}
	for _, o := range occ {
		crit[idx.Ref(o.Ref).Tuple.String()] = o.Critical
	}
	if !crit["(John,CUBE)"] {
		t.Error("John/CUBE occurrence should be critical")
	}
	if crit["(John,XML)"] {
		t.Error("John/XML occurrence should be non-critical (second derivation)")
	}
	// Unknown tuple and unknown view tuple: no ids.
	if _, ok := idx.LookupTuple(relation.TupleID{Relation: "T1", Tuple: tup("Nobody", "X")}); ok {
		t.Error("unknown tuple has a tuple id")
	}
	for _, ref := range []TupleRef{{View: 0, Tuple: tup("Nobody", "X")}, {View: 1, Tuple: tup("John", "XML")}, {View: -1}} {
		if _, ok := idx.LookupRef(ref); ok {
			t.Errorf("%v has a ref id", ref)
		}
	}
	// Ids round-trip.
	for r := int32(0); r < int32(idx.NumRefs()); r++ {
		if got, ok := idx.LookupRef(idx.Ref(r)); !ok || got != r {
			t.Errorf("LookupRef(Ref(%d)) = %d, %v", r, got, ok)
		}
	}
	for _, id := range db.AllTuples() {
		if got := idx.Tuple(mustTuple(t, idx, id)); got.Key() != id.Key() {
			t.Errorf("Tuple(LookupTuple(%s)) = %s", id, got)
		}
	}
	// The index holds no key strings, and crossing into or out of ids
	// builds none.
	id := db.AllTuples()[0]
	if n := testing.AllocsPerRun(20, func() { idx.LookupTuple(id); idx.Tuple(0); idx.Ref(0) }); n != 0 {
		t.Errorf("LookupTuple, Tuple and Ref allocate %v times, want 0", n)
	}
}

// TestIndexRefsAcrossEmptyViews: Ref derives a view tuple from the
// view's first ref id and answer, so ids round-trip even when empty views
// sit between, before and after the others.
func TestIndexRefsAcrossEmptyViews(t *testing.T) {
	db := fig1DB()
	views, err := Materialize([]*cq.Query{
		cq.MustParse("E(x) :- T1(x, 'VLDB')"),
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("E(x) :- T1(x, 'VLDB')"),
		cq.MustParse("E(x) :- T1(x, 'VLDB')"),
		cq.MustParse("Q(y) :- T1(x, y)"),
		cq.MustParse("E(x) :- T1(x, 'VLDB')"),
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildIndex(views)
	if idx.NumRefs() != TotalSize(views) {
		t.Fatalf("NumRefs = %d, want %d", idx.NumRefs(), TotalSize(views))
	}
	r := int32(0)
	for _, v := range views {
		for a := range v.Result.NumAnswers() {
			want := TupleRef{View: v.Index, Tuple: v.Result.Tuple(a)}
			if got := idx.Ref(r); got.Key() != want.Key() {
				t.Errorf("Ref(%d) = %s, want %s", r, got, want)
			}
			if got, ok := idx.LookupRef(want); !ok || got != r {
				t.Errorf("LookupRef(%s) = %d, %v; want %d", want, got, ok, r)
			}
			r++
		}
	}
}

// TestBuildIndexRejectsMixedStates: the index interns base tuples by
// relation row, so views evaluated over different states of the instance
// cannot share one index.
func TestBuildIndexRejectsMixedStates(t *testing.T) {
	db := fig1DB()
	q := cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")
	first, _ := Materialize([]*cq.Query{q}, db)
	db.Delete(relation.TupleID{Relation: "T1", Tuple: tup("Joe", "TKDE")})
	db.MustInsert("T1", "Ann", "TKDE")
	second, _ := Materialize([]*cq.Query{q}, db)
	second[0].Index = 1
	defer func() {
		if recover() == nil {
			t.Error("BuildIndex accepted views of two instance states")
		}
	}()
	BuildIndex([]*View{first[0], second[0]})
}

func TestInvertedIndexKeyPreservingAllCritical(t *testing.T) {
	db := fig1DB()
	qs := []*cq.Query{cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")}
	views, _ := Materialize(qs, db)
	idx := BuildIndex(views)
	for _, id := range db.AllTuples() {
		for _, o := range idx.AppendOccurrences(nil, mustTuple(t, idx, id)) {
			if !o.Critical {
				t.Errorf("key-preserving view has non-critical occurrence: %v in %v", id, idx.Ref(o.Ref))
			}
		}
	}
}

// mustTuple returns the tuple id of a base tuple that occurs in some
// derivation.
func mustTuple(t testing.TB, idx *Index, id relation.TupleID) int32 {
	t.Helper()
	ti, ok := idx.LookupTuple(id)
	if !ok {
		t.Fatalf("%s occurs in no derivation", id)
	}
	return ti
}

// mustRef returns the ref id of a view tuple.
func mustRef(t testing.TB, idx *Index, ref TupleRef) int32 {
	t.Helper()
	r, ok := idx.LookupRef(ref)
	if !ok {
		t.Fatalf("%s is not a view tuple", ref)
	}
	return r
}

// sideEffect deletes the source tuples through a fresh Maintainer and
// splits the view tuples that died into requested (in del) and collateral.
func sideEffect(views []*View, del *Deletion, deleted []relation.TupleID) (removedRequested, removedCollateral []TupleRef) {
	idx := BuildIndex(views)
	m := idx.NewMaintainer()
	for _, id := range deleted {
		ti, ok := idx.LookupTuple(id)
		if !ok {
			continue
		}
		for _, r := range flipped(m, func() { m.Delete(ti) }) {
			ref := idx.Ref(r)
			if del != nil && del.Contains(ref) {
				removedRequested = append(removedRequested, ref)
			} else {
				removedCollateral = append(removedCollateral, ref)
			}
		}
	}
	return removedRequested, removedCollateral
}

func TestSideEffectPaperExample(t *testing.T) {
	// Paper Section II.C: ΔV = (John, XML) on Q3. Removing (John,TKDE) and
	// (John,TODS) from T1 kills John/XML and John/CUBE: side-effect 1.
	db := fig1DB()
	qs := []*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}
	views, _ := Materialize(qs, db)
	del := NewDeletion(TupleRef{View: 0, Tuple: tup("John", "XML")})
	req, coll := sideEffect(views, del, []relation.TupleID{
		{Relation: "T1", Tuple: tup("John", "TKDE")},
		{Relation: "T1", Tuple: tup("John", "TODS")},
	})
	if len(req) != 1 || req[0].Tuple.String() != "(John,XML)" {
		t.Errorf("requested removed = %v", req)
	}
	if len(coll) != 1 || coll[0].Tuple.String() != "(John,CUBE)" {
		t.Errorf("collateral = %v", coll)
	}
	// Alternative optimum: (John,TKDE) from T1 and (TODS,XML,30) from T2;
	// side-effect 1 (Tom/XML? no — Joe,Tom go via TKDE... check: kills
	// John/CUBE? no. Kills John/XML (both derivations) and no other TKDE
	// path... T2(TODS,XML,30) only feeds John/XML. T1(John,TKDE) feeds
	// John/XML and John/CUBE => collateral John/CUBE. side-effect 1.)
	req, coll = sideEffect(views, del, []relation.TupleID{
		{Relation: "T1", Tuple: tup("John", "TKDE")},
		{Relation: "T2", Tuple: tup("TODS", "XML", "30")},
	})
	if len(req) != 1 || len(coll) != 1 {
		t.Errorf("alt optimum: req=%v coll=%v", req, coll)
	}
	// A worse solution: delete T2(TKDE,XML,30) and T2(TODS,XML,30): kills
	// Joe/XML, Tom/XML, John/XML => collateral 2.
	req, coll = sideEffect(views, del, []relation.TupleID{
		{Relation: "T2", Tuple: tup("TKDE", "XML", "30")},
		{Relation: "T2", Tuple: tup("TODS", "XML", "30")},
	})
	if len(req) != 1 || len(coll) != 2 {
		t.Errorf("worse solution: req=%v coll=%v", req, coll)
	}
}

func TestSideEffectNilDeletion(t *testing.T) {
	db := fig1DB()
	views, _ := Materialize([]*cq.Query{cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")}, db)
	req, coll := sideEffect(views, nil, []relation.TupleID{{Relation: "T1", Tuple: tup("Joe", "TKDE")}})
	if len(req) != 0 || len(coll) != 2 {
		t.Errorf("nil deletion: req=%v coll=%v", req, coll)
	}
}

// TestLexOrderPackedMatchesCompare: lexOrder gives the same order whether
// its rows fit in one uint64 with their index, and are sorted packed, or
// not, and are compared entry by entry; rows that tie keep index order.
func TestLexOrderPackedMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		width, n, limit := 1+rng.Intn(4), rng.Intn(300), 1+rng.Intn(12)
		keys := make([]int32, n*width)
		for i := range keys {
			keys[i] = int32(rng.Intn(limit))
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return slices.Compare(keys[int(a)*width:int(a+1)*width], keys[int(b)*width:int(b+1)*width])
		})
		packed := lexOrder(keys, width, limit)
		compared := lexOrder(keys, width, 1<<30) // 30-bit entries: rows of 3 or more never fit
		if !slices.Equal(packed, want) || !slices.Equal(compared, want) {
			t.Fatalf("trial %d (width %d, limit %d): packed %v, compared %v, want %v", trial, width, limit, packed, compared, want)
		}
	}
}
