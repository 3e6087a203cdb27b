package cq

import (
	"fmt"
	"strings"
	"testing"

	"delprop/internal/relation"
)

// FuzzParse asserts the parser never panics, and that successful parses
// round-trip through String (for inputs whose constants contain no quote
// character, which the printer cannot escape).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"Q3(x, z) :- T1(x, y), T2(y, z, w).",
		"Q(x) :- T(x)",
		"Q(x, y) :- R(x, 'const'), S(y, 42)",
		"Q(y, y1, y, y2, y, y3) :- T1(y, y1), T2(y, y2), T3(y, y3)",
		"Q() :- T()",
		"Q(x :- T(x)",
		"Q(x) :- ",
		"", "(", "'", "Q(x) :- T('unterminated",
		"Q(x) :- T(x) trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if strings.ContainsRune(src, '\'') {
			// Constants may contain characters String cannot re-quote.
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("round trip failed: %q -> %q: %v", src, rendered, err)
		}
		if q2.String() != rendered {
			t.Fatalf("round trip not stable: %q -> %q -> %q", src, rendered, q2.String())
		}
	})
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// decodeInstance builds a tiny instance and query from fuzz bytes: at
// most three relations of arity at most three over the values 0, 1 and 10
// (two encodings of different length), and a body of at most three atoms
// over the variables v0..v2 and those constants, so self-joins, repeated
// variables and constants all occur. ok is false when the body has no
// variable to put in the head.
func decodeInstance(data []byte) (q *Query, db *relation.Instance, ok bool) {
	in := fuzzBytes(data)
	values := []string{"0", "1", "10"}
	names := []string{"R", "S", "U"}
	db = relation.NewInstance()
	for _, name := range names[:1+in.next()%3] {
		attrs := []string{"a", "b", "c"}[:1+in.next()%3]
		key := []int{0}
		if in.next()%2 == 0 {
			key = []int{0, 1, 2}[:len(attrs)]
		}
		db.AddRelation(relation.MustSchema(name, attrs, key))
		for n := in.next() % 7; n > 0; n-- {
			t := make(relation.Tuple, len(attrs))
			for i := range t {
				t[i] = relation.Value(values[in.next()%3])
			}
			_ = db.Insert(name, t) // duplicates and key collisions are skipped
		}
	}
	rels := db.RelationNames()
	q = &Query{Name: "Q"}
	for n := 1 + in.next()%3; n > 0; n-- {
		name := rels[in.next()%len(rels)]
		a := Atom{Relation: name}
		for range db.Relation(name).Schema().Attrs {
			if c := in.next(); c%4 == 3 {
				a.Terms = append(a.Terms, C(values[c/4%3]))
			} else {
				a.Terms = append(a.Terms, V(fmt.Sprintf("v%d", c%4)))
			}
		}
		q.Body = append(q.Body, a)
	}
	vars := q.BodyVars()
	if len(vars) == 0 {
		return nil, nil, false
	}
	for n := 1 + in.next()%3; n > 0; n-- {
		q.Head = append(q.Head, V(vars[in.next()%len(vars)]))
	}
	return q, db, true
}

// FuzzEvaluate asserts that the compiled join returns exactly the naive
// reference's answers and derivations on tiny generated instances, and
// that every answer is found again by its head tuple.
func FuzzEvaluate(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 1, 0, 4, 0, 1, 1, 2, 2, 1, 3, 1, 1, 0, 1, 2, 1, 0, 1, 1, 5, 2},
		{0, 2, 0, 6, 0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 0, 0, 1, 0, 3, 1},
		{2, 1, 1, 5, 0, 1, 2, 0, 1, 0, 1, 1, 2, 1, 4, 0, 1, 1, 2, 0, 0, 2, 1, 1, 0, 2, 0, 1, 1, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, db, ok := decodeInstance(data)
		if !ok {
			return
		}
		checkAgainstNaive(t, "fuzz", q, db)
		res := MustEvaluate(q, db)
		for i := range res.NumAnswers() {
			if j, ok := res.Position(res.Tuple(i)); !ok || j != i {
				t.Fatalf("%s: Position(%v) = %d, %v; want %d", q, res.Tuple(i), j, ok, i)
			}
		}
	})
}
