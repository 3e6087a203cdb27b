package lineage

import (
	"fmt"
	"strings"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// affected renders AffectedBy of each base tuple of the report's
// witnesses, one line per tuple.
func affected(views []*view.View, rep *Report) string {
	idx := view.BuildIndex(views)
	var b strings.Builder
	for _, w := range rep.Why {
		for _, id := range w {
			fmt.Fprintf(&b, "%s: %v\n", id, AffectedBy(idx, id))
		}
	}
	return b.String()
}

// TestLineageGolden pins Report.String and AffectedBy on three shapes:
// Fig. 1's non-key-preserving V0(John,XML), a self-join whose derivation
// matches one base tuple with both atoms, and a non-key-preserving query
// whose witnesses and cells come in key order, not rendered order ("bb"
// renders before "c", but its key "2:bb;" sorts after "1:c;").
func TestLineageGolden(t *testing.T) {
	selfDB := relation.NewInstance(relation.MustSchema("E", []string{"src", "dst"}, []int{0, 1}))
	selfDB.MustInsert("E", "a", "a")
	selfDB.MustInsert("E", "a", "b")
	selfDB.MustInsert("E", "b", "a")
	npDB := relation.NewInstance(
		relation.MustSchema("R", []string{"k", "v"}, []int{0, 1}),
		relation.MustSchema("S", []string{"v"}, []int{0}),
	)
	npDB.MustInsert("R", "a", "c")
	npDB.MustInsert("R", "a", "bb")
	npDB.MustInsert("R", "dd", "c")
	npDB.MustInsert("S", "c")
	npDB.MustInsert("S", "bb")
	fig1 := workload.Fig1()
	cases := []struct {
		name     string
		db       *relation.Instance
		queries  []*cq.Query
		ref      view.TupleRef
		report   string
		affected string
	}{
		{
			name:    "fig1",
			db:      fig1.DB,
			queries: fig1.Queries,
			ref:     view.TupleRef{View: 0, Tuple: relation.Tuple{"John", "XML"}},
			report: "lineage of V0(John,XML)\n" +
				"  why[0]: {T1(John,TKDE), T2(TKDE,XML,30)}\n" +
				"  why[1]: {T1(John,TODS), T2(TODS,XML,30)}\n" +
				"  where[0]: T1(John,TKDE)[0], T1(John,TODS)[0]\n" +
				"  where[1]: T2(TKDE,XML,30)[1], T2(TODS,XML,30)[1]\n",
			affected: "T1(John,TKDE): [V0(John,XML) V0(John,CUBE) V1(John,TKDE,XML) V1(John,TKDE,CUBE)]\n" +
				"T2(TKDE,XML,30): [V0(Joe,XML) V0(Tom,XML) V0(John,XML) V1(Joe,TKDE,XML) V1(Tom,TKDE,XML) V1(John,TKDE,XML)]\n" +
				"T1(John,TODS): [V0(John,XML) V1(John,TODS,XML)]\n" +
				"T2(TODS,XML,30): [V0(John,XML) V1(John,TODS,XML)]\n",
		},
		{
			name:    "self-join",
			db:      selfDB,
			queries: []*cq.Query{cq.MustParse("P(x, z) :- E(x, y), E(y, z)")},
			ref:     view.TupleRef{View: 0, Tuple: relation.Tuple{"a", "a"}},
			report: "lineage of V0(a,a)\n" +
				"  why[0]: {E(a,a)}\n" +
				"  why[1]: {E(a,b), E(b,a)}\n" +
				"  where[0]: E(a,a)[0], E(a,b)[0]\n" +
				"  where[1]: E(a,a)[1], E(b,a)[1]\n",
			affected: "E(a,a): [V0(a,a) V0(a,b) V0(b,a)]\n" +
				"E(a,b): [V0(a,a) V0(a,b) V0(b,b)]\n" +
				"E(b,a): [V0(a,a) V0(b,a) V0(b,b)]\n",
		},
		{
			name:    "non-key-preserving",
			db:      npDB,
			queries: []*cq.Query{cq.MustParse("Q(x) :- R(x, y), S(y)"), cq.MustParse("W(y) :- R(x, y)")},
			ref:     view.TupleRef{View: 0, Tuple: relation.Tuple{"a"}},
			report: "lineage of V0(a)\n" +
				"  why[0]: {R(a,c), S(c)}\n" +
				"  why[1]: {R(a,bb), S(bb)}\n" +
				"  where[0]: R(a,c)[0], R(a,bb)[0]\n",
			affected: "R(a,c): [V0(a) V1(c)]\n" +
				"S(c): [V0(a) V0(dd)]\n" +
				"R(a,bb): [V0(a) V1(bb)]\n" +
				"S(bb): [V0(a)]\n",
		},
	}
	for _, c := range cases {
		views, err := view.Materialize(c.queries, c.db)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Explain(views, c.ref)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := rep.String(); got != c.report {
			t.Errorf("%s: report\n%s\nwant\n%s", c.name, got, c.report)
		}
		if got := affected(views, rep); got != c.affected {
			t.Errorf("%s: affected\n%s\nwant\n%s", c.name, got, c.affected)
		}
	}
}
