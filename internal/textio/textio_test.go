package textio

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

const fig1Text = `
# Fig 1 database
relation T1(AuName*, Journal*)
T1(Joe, TKDE)
T1(John, TKDE)
T1(Tom, TKDE)
T1(John, TODS)
relation T2(Journal*, Topic*, Papers)
T2(TKDE, XML, 30)
T2(TKDE, CUBE, 30)
T2(TODS, XML, 30)
`

func TestParseDatabase(t *testing.T) {
	db, err := ParseDatabase(fig1Text)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 7 {
		t.Errorf("size = %d, want 7", db.Size())
	}
	s := db.Relation("T2").Schema()
	if s.Arity() != 3 || len(s.Key) != 2 || s.Key[0] != 0 || s.Key[1] != 1 {
		t.Errorf("T2 schema = %s", s)
	}
	if !db.Contains(relation.TupleID{Relation: "T1", Tuple: relation.Tuple{"John", "TODS"}}) {
		t.Error("missing fact")
	}
}

func TestParseDatabaseErrors(t *testing.T) {
	cases := []string{
		"T1(Joe, TKDE)",                    // undeclared
		"relation T1(a)",                   // no key
		"relation T1(a*)\nrelation T1(b*)", // duplicate relation
		"relation T1(a*)\nT1(x)\nT1(x)",    // duplicate fact
		"relation T1(a*)\nT1(x, y)",        // arity
		"relation T1(a*)\nbroken line",     // not a call
		"relation T1(a*, a*)",              // duplicate attr
	}
	for _, src := range cases {
		if _, err := ParseDatabase(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseDeletions(t *testing.T) {
	queries := []*cq.Query{
		cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)"),
		cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)"),
	}
	del, err := ParseDeletions("# comment\nQ3(John, XML)\nQ4(John, TKDE, XML)\n", queries)
	if err != nil {
		t.Fatal(err)
	}
	if del.Len() != 2 {
		t.Fatalf("len = %d", del.Len())
	}
	refs := del.Refs()
	if refs[0].View != 0 || refs[1].View != 1 {
		t.Errorf("views = %d, %d", refs[0].View, refs[1].View)
	}
	if _, err := ParseDeletions("Nope(x)", queries); !errors.Is(err, ErrFormat) {
		t.Errorf("unknown query err = %v", err)
	}
	if _, err := ParseDeletions("garbage", queries); !errors.Is(err, ErrFormat) {
		t.Errorf("garbage err = %v", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	db, err := ParseDatabase(fig1Text)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatDatabase(db)
	db2, err := ParseDatabase(out)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, out)
	}
	if db.String() != db2.String() {
		t.Errorf("round trip changed database:\n%s\nvs\n%s", db.String(), db2.String())
	}
	if !strings.Contains(out, "relation T1(AuName*, Journal*)") {
		t.Errorf("missing declaration in:\n%s", out)
	}
}

func TestSplitCallEdgeCases(t *testing.T) {
	name, inner, err := cutCall("F()")
	if args := appendArgs[string](nil, inner); err != nil || name != "F" || args != nil {
		t.Errorf("F() = %q %v %v", name, args, err)
	}
	if args := appendArgs[string](nil, " a , ,b"); !slices.Equal(args, []string{"a", "", "b"}) {
		t.Errorf("arguments of \" a , ,b\" = %q", args)
	}
	if _, _, err := cutCall("(x)"); err == nil {
		t.Error("empty name accepted")
	}
	if _, _, err := cutCall("F(x"); err == nil {
		t.Error("unclosed accepted")
	}
	if _, _, err := splitCall[string]("F(x,,y)"); err == nil {
		t.Error("empty arg accepted")
	}
}
