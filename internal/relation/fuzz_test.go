package relation

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// fuzzKeys and fuzzVals are the small alphabets FuzzRelationOps draws
// column values from, so that keys meet again after deletes and the key
// table's probe runs collide and shift back.
var (
	fuzzKeys = []Value{"", "a", "b", "c", "ab", "ba", "a:b", "1:a;", "k0", "k1", "k2", "k3", "é", "日本", "x y", "z"}
	fuzzVals = []Value{"", "v", "w", "v;w"}
)

// relationOracle is the reference model of a two-column relation keyed
// on column 0: rows in insertion order, nil once deleted, and the live
// row of each key by the TupleID.Key of its key column.
type relationOracle struct {
	rows  []Tuple
	byKey map[string]int
}

func (o *relationOracle) keyOf(t Tuple) string {
	return TupleID{Relation: "T", Tuple: t[:1]}.Key()
}

// insert returns the error text Relation.Insert must return, or "".
func (o *relationOracle) insert(t Tuple) (string, error) {
	if i, ok := o.byKey[o.keyOf(t)]; ok {
		if o.rows[i].Equal(t) {
			return fmt.Sprintf("%v: T%s", ErrDuplicate, t), ErrDuplicate
		}
		return fmt.Sprintf("%v: T%s collides on key with T%s", ErrKeyViolation, t, o.rows[i]), ErrKeyViolation
	}
	o.byKey[o.keyOf(t)] = len(o.rows)
	o.rows = append(o.rows, t)
	return "", nil
}

func (o *relationOracle) contains(t Tuple) bool {
	i, ok := o.byKey[o.keyOf(t)]
	return ok && o.rows[i].Equal(t)
}

func (o *relationOracle) delete(t Tuple) bool {
	if !o.contains(t) {
		return false
	}
	k := o.keyOf(t)
	o.rows[o.byKey[k]] = nil
	delete(o.byKey, k)
	return true
}

func (o *relationOracle) tuples() []Tuple {
	out := []Tuple{}
	for _, t := range o.rows {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// heldSnapshot is a Tuples() slice kept across later operations, with
// the tuples it held when taken.
type heldSnapshot struct {
	got, want []Tuple
}

// FuzzRelationOps runs a decoded sequence of Insert, Delete, Contains,
// Len and Tuples calls on a two-column relation keyed on column 0 and
// checks every result against relationOracle: error kinds and texts,
// Len after each operation, Tuples in insertion order, and Tuples
// snapshots held across later inserts and deletes keeping their tuples.
// Each operation is two bytes: the kind, then the tuple (low four bits
// the key, the next two the value).
func FuzzRelationOps(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0x01, 0, 0x11, 0, 0x02, 4, 0, 1, 0x01, 3, 0, 5, 0},
		{0, 0x03, 0, 0x04, 0, 0x05, 0, 0x06, 0, 0x07, 4, 0, 1, 0x04, 1, 0x03, 0, 0x04, 5, 0, 2, 0x05, 2, 0x15},
		{0, 0x0f, 0, 0x1e, 0, 0x2d, 0, 0x3c, 4, 0, 1, 0x0f, 1, 0x2d, 0, 0x0f, 4, 0, 1, 0x1e, 1, 0x3c, 1, 0x0f, 5, 0, 3, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRelation(MustSchema("T", []string{"k", "v"}, []int{0}))
		o := &relationOracle{byKey: make(map[string]int)}
		var held []heldSnapshot
		for ; len(data) >= 2; data = data[2:] {
			tu := Tuple{fuzzKeys[data[1]&15], fuzzVals[data[1]>>4&3]}
			switch data[0] % 6 {
			case 0:
				err := r.Insert(tu)
				wantText, wantErr := o.insert(tu)
				if wantErr == nil && err != nil || wantErr != nil && (!errors.Is(err, wantErr) || err.Error() != wantText) {
					t.Fatalf("Insert%s = %v, want %q", tu, err, wantText)
				}
			case 1:
				if got, want := r.Delete(tu), o.delete(tu); got != want {
					t.Fatalf("Delete%s = %v, want %v", tu, got, want)
				}
			case 2:
				if got, want := r.Contains(tu), o.contains(tu); got != want {
					t.Fatalf("Contains%s = %v, want %v", tu, got, want)
				}
			case 3:
				if got, want := r.Insert(Tuple{tu[0]}), fmt.Sprintf("%v: relation T expects arity 2, got 1", ErrArity); got == nil || got.Error() != want {
					t.Fatalf("Insert(%s) = %v, want %q", tu[0], got, want)
				}
				if r.Contains(Tuple{tu[0]}) || r.Delete(Tuple{tu[0]}) {
					t.Fatalf("a one-column tuple (%s) is present", tu[0])
				}
			case 4:
				held = append(held, heldSnapshot{got: r.Tuples(), want: o.tuples()})
			case 5:
				if got, want := r.Tuples(), o.tuples(); !slices.EqualFunc(got, want, Tuple.Equal) {
					t.Fatalf("Tuples = %v, want %v", got, want)
				}
			}
			if got, want := r.Len(), len(o.byKey); got != want {
				t.Fatalf("Len = %d, want %d", got, want)
			}
			for i, h := range held {
				if !slices.EqualFunc(h.got, h.want, Tuple.Equal) {
					t.Fatalf("snapshot %d is %v, was %v when taken", i, h.got, h.want)
				}
			}
		}
		if got, want := r.Tuples(), o.tuples(); !slices.EqualFunc(got, want, Tuple.Equal) {
			t.Fatalf("Tuples = %v, want %v", got, want)
		}
		for _, tu := range o.tuples() {
			if !r.Contains(tu) {
				t.Fatalf("Contains%s = false after the run", tu)
			}
		}
	})
}
