package relation

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func tup(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Value(v)
	}
	return t
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		rel   string
		attrs []string
		key   []int
		ok    bool
	}{
		{"valid", "T", []string{"a", "b"}, []int{0}, true},
		{"valid multi-key", "T", []string{"a", "b", "c"}, []int{0, 2}, true},
		{"empty name", "", []string{"a"}, []int{0}, false},
		{"zero arity", "T", nil, []int{0}, false},
		{"dup attr", "T", []string{"a", "a"}, []int{0}, false},
		{"empty attr", "T", []string{""}, []int{0}, false},
		{"empty key", "T", []string{"a"}, nil, false},
		{"key out of range", "T", []string{"a"}, []int{1}, false},
		{"key negative", "T", []string{"a"}, []int{-1}, false},
		{"key not increasing", "T", []string{"a", "b"}, []int{1, 0}, false},
		{"key duplicate", "T", []string{"a", "b"}, []int{0, 0}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewSchema(c.rel, c.attrs, c.key)
			if (err == nil) != c.ok {
				t.Fatalf("NewSchema(%q,%v,%v) err=%v, want ok=%v", c.rel, c.attrs, c.key, err, c.ok)
			}
		})
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema with bad key did not panic")
		}
	}()
	MustSchema("T", []string{"a"}, nil)
}

func TestSchemaAccessors(t *testing.T) {
	s := MustSchema("T", []string{"a", "b", "c"}, []int{0, 2})
	if s.Arity() != 3 {
		t.Errorf("Arity = %d, want 3", s.Arity())
	}
	if !s.IsKeyPos(0) || s.IsKeyPos(1) || !s.IsKeyPos(2) {
		t.Errorf("IsKeyPos wrong: %v %v %v", s.IsKeyPos(0), s.IsKeyPos(1), s.IsKeyPos(2))
	}
	if got := s.String(); got != "T(a*, b, c*)" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleBasics(t *testing.T) {
	a := tup("x", "y")
	b := a.Clone()
	b[0] = "z"
	if a[0] != "x" {
		t.Error("Clone did not copy")
	}
	if !a.Equal(tup("x", "y")) {
		t.Error("Equal false negative")
	}
	if a.Equal(tup("x")) || a.Equal(tup("x", "z")) {
		t.Error("Equal false positive")
	}
	if a.String() != "(x,y)" {
		t.Errorf("String = %q", a.String())
	}
}

// TestTupleEncodeInjective is the critical property: distinct tuples must
// get distinct encodings, including tuples whose naive concatenations
// collide ("ab","c" vs "a","bc").
func TestTupleEncodeInjective(t *testing.T) {
	pairs := [][2]Tuple{
		{tup("ab", "c"), tup("a", "bc")},
		{tup("a;b"), tup("a", "b")},
		{tup("1:a"), tup("a")},
		{tup(""), tup()},
		{tup("a", ""), tup("a")},
	}
	for _, p := range pairs {
		if p[0].Encode() == p[1].Encode() {
			t.Errorf("Encode collision: %v vs %v -> %q", p[0], p[1], p[0].Encode())
		}
	}
}

// TestTupleEncodeGolden pins the byte form of Encode and TupleID.Key:
// map keys, ref ranks and tie-break orders are built from these strings,
// so any change to the encoding changes solver output.
func TestTupleEncodeGolden(t *testing.T) {
	long := strings.Repeat("x", 70)
	cases := []struct {
		t    Tuple
		want string
	}{
		{tup(), ""},
		{tup(""), "0:;"},
		{tup("", ""), "0:;0:;"},
		{tup("a", "bc"), "1:a;2:bc;"},
		{tup("a:b", "c;d", "e|f"), "3:a:b;3:c;d;3:e|f;"},
		{tup("1:a;"), "4:1:a;;"},
		{tup("é", "日本", "🙂"), "2:é;6:日本;4:🙂;"},
		{tup(long), "70:" + long + ";"},
	}
	for _, c := range cases {
		if got := c.t.Encode(); got != c.want {
			t.Errorf("Encode(%q) = %q, want %q", []Value(c.t), got, c.want)
		}
		if got := string(c.t.AppendEncode([]byte("pre"))); got != "pre"+c.want {
			t.Errorf("AppendEncode(%q) = %q, want %q", []Value(c.t), got, "pre"+c.want)
		}
	}
	id := TupleID{Relation: "T|1", Tuple: tup("é", "a|b", "")}
	if got, want := id.Key(), "T|1|2:é;3:a|b;0:;"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if !id.Equal(TupleID{Relation: "T|1", Tuple: tup("é", "a|b", "")}) || id.Equal(TupleID{Relation: "T", Tuple: id.Tuple}) {
		t.Error("TupleID.Equal disagrees with Key equality")
	}
}

// TestTupleStringGolden pins the rendered form of Tuple and TupleID:
// CLI output, response bodies and sorted collateral lists are built from
// these strings.
func TestTupleStringGolden(t *testing.T) {
	long := strings.Repeat("x", 70)
	cases := []struct {
		t    Tuple
		want string
	}{
		{nil, "()"},
		{tup(), "()"},
		{tup(""), "()"},
		{tup("", ""), "(,)"},
		{tup("a", "bc"), "(a,bc)"},
		{tup("a,b", "(c)", "d e"), "(a,b,(c),d e)"},
		{tup("é", "日本", "🙂"), "(é,日本,🙂)"},
		{tup(long, "y"), "(" + long + ",y)"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%q) = %q, want %q", []Value(c.t), got, c.want)
		}
		if got := string(c.t.AppendString([]byte("pre"))); got != "pre"+c.want {
			t.Errorf("AppendString(%q) = %q, want %q", []Value(c.t), got, "pre"+c.want)
		}
		if got := (TupleID{Relation: "T1", Tuple: c.t}).String(); got != "T1"+c.want {
			t.Errorf("TupleID.String(%q) = %q, want %q", []Value(c.t), got, "T1"+c.want)
		}
	}
	if got := (TupleID{Tuple: tup("a")}).String(); got != "(a)" {
		t.Errorf("TupleID.String with no relation = %q, want %q", got, "(a)")
	}
}

func TestTupleEncodeInjectiveQuick(t *testing.T) {
	f := func(a, b []string) bool {
		ta := make(Tuple, len(a))
		for i, v := range a {
			ta[i] = Value(v)
		}
		tb := make(Tuple, len(b))
		for i, v := range b {
			tb[i] = Value(v)
		}
		if ta.Equal(tb) {
			return ta.Encode() == tb.Encode()
		}
		return ta.Encode() != tb.Encode()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationInsertAndConstraints(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a", "b"}, []int{0}))
	if err := r.Insert(tup("k1", "v1")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(tup("k2", "v2")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(tup("k1", "v1")); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate insert err = %v, want ErrDuplicate", err)
	}
	if err := r.Insert(tup("k1", "other")); !errors.Is(err, ErrKeyViolation) {
		t.Errorf("key clash insert err = %v, want ErrKeyViolation", err)
	}
	if err := r.Insert(tup("too", "many", "cols")); !errors.Is(err, ErrArity) {
		t.Errorf("arity err = %v, want ErrArity", err)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if !r.Contains(tup("k1", "v1")) || r.Contains(tup("k1", "other")) {
		t.Error("Contains wrong")
	}
}

func TestRelationInsertIsolatesCaller(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	src := tup("x")
	if err := r.Insert(src); err != nil {
		t.Fatal(err)
	}
	src[0] = "mutated"
	if !r.Contains(tup("x")) {
		t.Error("relation shares storage with caller tuple")
	}
}

func TestRelationDelete(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a", "b"}, []int{0}))
	r.Insert(tup("k1", "v1"))
	if !r.Delete(tup("k1", "v1")) {
		t.Fatal("Delete existing = false")
	}
	if r.Delete(tup("k1", "v1")) {
		t.Fatal("Delete absent = true")
	}
	if r.Len() != 0 {
		t.Errorf("Len after delete = %d", r.Len())
	}
	// Key slot must be freed: reinsert with same key, different value.
	if err := r.Insert(tup("k1", "v9")); err != nil {
		t.Errorf("reinsert after delete failed: %v", err)
	}
}

// TestReinsertAfterDelete guards against stale iteration-order entries: a
// tuple deleted and re-inserted must appear exactly once.
func TestReinsertAfterDelete(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	if err := r.Insert(tup("x")); err != nil {
		t.Fatal(err)
	}
	if !r.Delete(tup("x")) {
		t.Fatal("delete failed")
	}
	if err := r.Insert(tup("x")); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Tuples()); got != 1 {
		t.Fatalf("Tuples() returned %d entries, want 1", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRelationTuplesOrderStable(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	for _, v := range []string{"c", "a", "b"} {
		r.Insert(tup(v))
	}
	got := r.Tuples()
	want := []string{"c", "a", "b"}
	for i, w := range want {
		if string(got[i][0]) != w {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	r.Delete(tup("a"))
	got = r.Tuples()
	if len(got) != 2 || string(got[0][0]) != "c" || string(got[1][0]) != "b" {
		t.Fatalf("order after delete %v", got)
	}
}

func TestRelationClone(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	r.Insert(tup("x"))
	c := r.Clone()
	c.Delete(tup("x"))
	if !r.Contains(tup("x")) {
		t.Error("Clone shares storage")
	}
}

func TestInstanceBasics(t *testing.T) {
	db := NewInstance(
		MustSchema("T1", []string{"a", "b"}, []int{0}),
		MustSchema("T2", []string{"c"}, []int{0}),
	)
	db.MustInsert("T1", "x", "y")
	db.MustInsert("T2", "z")
	if db.Size() != 2 {
		t.Errorf("Size = %d", db.Size())
	}
	if !db.HasRelation("T1") || db.HasRelation("T9") {
		t.Error("HasRelation wrong")
	}
	if err := db.Insert("T9", tup("x")); !errors.Is(err, ErrNoSuchRelation) {
		t.Errorf("insert unknown rel err = %v", err)
	}
	names := db.RelationNames()
	if len(names) != 2 || names[0] != "T1" || names[1] != "T2" {
		t.Errorf("RelationNames = %v", names)
	}
	all := db.AllTuples()
	if len(all) != 2 || all[0].Relation != "T1" || all[1].Relation != "T2" {
		t.Errorf("AllTuples = %v", all)
	}
	id := TupleID{Relation: "T1", Tuple: tup("x", "y")}
	if !db.Contains(id) {
		t.Error("Contains = false")
	}
	if !db.Delete(id) || db.Contains(id) {
		t.Error("Delete failed")
	}
	if db.Delete(TupleID{Relation: "nope", Tuple: tup("x")}) {
		t.Error("Delete unknown relation = true")
	}
}

func TestInstanceAddRelationDuplicatePanics(t *testing.T) {
	db := NewInstance(MustSchema("T", []string{"a"}, []int{0}))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddRelation did not panic")
		}
	}()
	db.AddRelation(MustSchema("T", []string{"b"}, []int{0}))
}

func TestInstanceWithout(t *testing.T) {
	db := NewInstance(MustSchema("T", []string{"a"}, []int{0}))
	db.MustInsert("T", "x")
	db.MustInsert("T", "y")
	rest := db.Without([]TupleID{{Relation: "T", Tuple: tup("x")}})
	if db.Size() != 2 {
		t.Error("Without mutated the original")
	}
	if rest.Size() != 1 || !rest.Contains(TupleID{Relation: "T", Tuple: tup("y")}) {
		t.Errorf("Without result wrong: %v", rest)
	}
}

func TestInstanceString(t *testing.T) {
	db := NewInstance(MustSchema("T", []string{"a", "b"}, []int{0}))
	db.MustInsert("T", "k", "v")
	s := db.String()
	if !strings.Contains(s, "T(a*, b)") || !strings.Contains(s, "(k,v)") {
		t.Errorf("String = %q", s)
	}
}

func TestTupleIDKeyDistinct(t *testing.T) {
	a := TupleID{Relation: "T", Tuple: tup("x")}
	b := TupleID{Relation: "T2", Tuple: tup("x")}
	if a.Key() == b.Key() {
		t.Error("TupleID.Key collision across relations")
	}
	if a.String() != "T(x)" {
		t.Errorf("String = %q", a.String())
	}
}

// Property: insert then delete leaves the relation exactly as before, for
// any batch of distinct-keyed tuples.
func TestInsertDeleteRoundTripQuick(t *testing.T) {
	f := func(keys []uint8) bool {
		r := NewRelation(MustSchema("T", []string{"a", "b"}, []int{0}))
		inserted := make(map[uint8]bool)
		for _, k := range keys {
			if inserted[k] {
				continue
			}
			inserted[k] = true
			if err := r.Insert(tup(string(rune('A'+int(k%26))), "v")); err != nil {
				// Key collisions possible since k%26 folds; treat as skip.
				inserted[k] = false
				continue
			}
		}
		n := r.Len()
		for _, tpl := range r.Tuples() {
			if !r.Delete(tpl) {
				return false
			}
		}
		return r.Len() == 0 && n <= 26
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTuplesSnapshotShared: Tuples returns one backing array until the
// relation changes, and a change leaves the slices already returned as
// they were.
func TestTuplesSnapshotShared(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	for _, v := range []string{"c", "a", "b"} {
		r.Insert(tup(v))
	}
	first := r.Tuples()
	if again := r.Tuples(); &again[0] != &first[0] || len(again) != len(first) {
		t.Fatal("two Tuples calls over one state returned different snapshots")
	}
	r.Delete(tup("a"))
	afterDelete := r.Tuples()
	if len(first) != 3 || string(first[1][0]) != "a" {
		t.Fatalf("Delete changed an earlier snapshot: %v", first)
	}
	if len(afterDelete) != 2 || &afterDelete[0] == &first[0] {
		t.Fatalf("snapshot after Delete is %v, sharing the old array: %v", afterDelete, &afterDelete[0] == &first[0])
	}
	r.Insert(tup("d"))
	if got := r.Tuples(); len(got) != 3 || string(got[2][0]) != "d" || len(afterDelete) != 2 {
		t.Fatalf("snapshot after Insert is %v; earlier one %v", got, afterDelete)
	}
}

// TestTuplesConcurrentReaders: goroutines that call Tuples at once on a
// relation with no snapshot yet all receive the same one.
func TestTuplesConcurrentReaders(t *testing.T) {
	r := NewRelation(MustSchema("T", []string{"a"}, []int{0}))
	for _, v := range []string{"c", "a", "b"} {
		r.Insert(tup(v))
	}
	got := make([][]Tuple, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.Tuples()
		}()
	}
	wg.Wait()
	for i, s := range got {
		if len(s) != 3 || &s[0] != &got[0][0] {
			t.Fatalf("reader %d got %v, not reader 0's snapshot", i, s)
		}
	}
}

// TestValueCompareEncodeLengths: values of different lengths order as
// their "len:" prefixes compare, across lengths with one to four digits.
func TestValueCompareEncodeLengths(t *testing.T) {
	var lens []int
	for n := 0; n < 1200; n += 1 + n/40 {
		lens = append(lens, n)
	}
	lens = append(lens, 9999, 10000, 10001)
	for _, a := range lens {
		for _, b := range lens {
			v, w := Value(strings.Repeat("x", a)), Value(strings.Repeat("x", b))
			if got, want := v.CompareEncode(w), strings.Compare(Tuple{v}.Encode(), Tuple{w}.Encode()); got != want {
				t.Fatalf("CompareEncode of lengths %d and %d = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestCompareKeyMatchesKeyOrder: CompareEncode and CompareKey order
// tuples and identities exactly as their Encode and Key strings compare,
// including values whose lengths share decimal prefixes (1 vs 10..12),
// tuples of different arity and relation names that prefix each other
// or contain "|".
func TestCompareKeyMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"A", "AB", "A|", "A|B", "Ab", "B", "A0"}
	randTuple := func() Tuple {
		out := make(Tuple, 1+rng.Intn(3))
		for i := range out {
			out[i] = Value(strings.Repeat(string(rune('a'+rng.Intn(2))), rng.Intn(13)))
		}
		return out
	}
	for i := 0; i < 20000; i++ {
		a := TupleID{Relation: names[rng.Intn(len(names))], Tuple: randTuple()}
		b := TupleID{Relation: names[rng.Intn(len(names))], Tuple: randTuple()}
		if rng.Intn(4) == 0 {
			b.Tuple = append(a.Tuple[:len(a.Tuple):len(a.Tuple)], randTuple()...)
		}
		if got, want := a.Tuple.CompareEncode(b.Tuple), strings.Compare(a.Tuple.Encode(), b.Tuple.Encode()); got != want {
			t.Fatalf("CompareEncode(%v, %v) = %d, want %d", a.Tuple, b.Tuple, got, want)
		}
		if got, want := a.CompareKey(b), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("CompareKey(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}

// Encode is the tuple's Encode form as a string, the oracle the encoding
// and ordering tests compare against.
func (t Tuple) Encode() string {
	var buf [64]byte
	return string(t.AppendEncode(buf[:0]))
}
