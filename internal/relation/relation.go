// Package relation implements the in-memory relational substrate used by the
// deletion-propagation library: schemas with per-relation keys, relation
// instances with key-constraint enforcement, tuple identity and the
// canonical tuple encoding.
//
// The model follows Section II.A of Cai, Miao, Li, "Deletion Propagation for
// Multiple Key Preserving Conjunctive Queries" (ICDE 2019): an instance is a
// finite set of facts T(t) over string constants, and every relation carries
// a key, i.e. a set of attribute positions on which no two tuples agree.
package relation

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Value is a database constant. The paper draws constants from an abstract
// set Const; we use strings, which subsume the integer identifiers used in
// the synthetic workloads.
type Value string

// Tuple is an ordered list of constants; its arity is the arity of the
// relation it belongs to.
type Tuple []Value

// Clone returns a deep copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether t and u have the same arity and the same constants
// in every position.
func (t Tuple) Equal(u Tuple) bool { return slices.Equal(t, u) }

// String renders the tuple as (a,b,c).
func (t Tuple) String() string {
	var buf [64]byte
	return string(t.AppendString(buf[:0]))
}

// AppendString appends the String form of the tuple to dst and returns
// the extended slice.
func (t Tuple) AppendString(dst []byte) []byte {
	dst = append(dst, '(')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, v...)
	}
	return append(dst, ')')
}

// AppendEncode appends the tuple's Encode form to dst and returns the
// extended slice. The Encode form is canonical and injective for tuples
// of the same arity, usable as a map key: values are length-prefixed so
// that no two distinct tuples collide, each value v written as
// "len(v):v;" with the length in decimal bytes. Map lookups through
// string(AppendEncode(buf[:0])) do not allocate.
func (t Tuple) AppendEncode(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendEncode(dst)
	}
	return dst
}

// AppendEncode appends v's part of a tuple's Encode form, "len(v):v;", to
// dst and returns the extended slice.
func (v Value) AppendEncode(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(len(v)), 10)
	dst = append(dst, ':')
	dst = append(dst, v...)
	return append(dst, ';')
}

// CompareEncode orders t and u as their Encode forms compare, without
// building them. A value's "len(v):v;" part is never a proper prefix of
// another value's, so the first position where t and u differ decides.
func (t Tuple) CompareEncode(u Tuple) int {
	for i := 0; i < len(t) && i < len(u); i++ {
		if t[i] != u[i] {
			return t[i].CompareEncode(u[i])
		}
	}
	return cmp.Compare(len(t), len(u))
}

// CompareEncode orders v and w as their Encode parts, "len(v):v;",
// compare. Equal lengths leave the bytes to decide; otherwise the
// "len:" prefixes do.
func (v Value) CompareEncode(w Value) int {
	if len(v) == len(w) {
		return strings.Compare(string(v), string(w))
	}
	return compareLenPrefix(len(v), len(w))
}

// EncodePrefix returns the first eight bytes of v's Encode part,
// "len(v):v;", as a big-endian integer, zero-padded when the part is
// shorter. Parts are prefix-free, so when the prefixes of v and w differ
// they order v and w as CompareEncode does; equal prefixes leave it to
// CompareEncode.
func (v Value) EncodePrefix() uint64 {
	var buf [32]byte
	b := strconv.AppendInt(buf[:0], int64(len(v)), 10)
	b = append(b, ':')
	b = append(b, v[:min(len(v), 8)]...)
	b = append(b, ';')
	var w [8]byte
	copy(w[:], b)
	return binary.BigEndian.Uint64(w[:])
}

// compareLenPrefix orders two distinct lengths as their "len:" prefixes
// compare, without formatting them. The decimal digits compare first;
// when one length's digits begin the other's, its ':' meets the longer
// one's next digit and sorts after it, so 10 precedes 1.
func compareLenPrefix(a, b int) int {
	da, db := decimalDigits(a), decimalDigits(b)
	ta, tb := a, b
	for i := da; i > db; i-- {
		ta /= 10
	}
	for i := db; i > da; i-- {
		tb /= 10
	}
	if ta != tb {
		return cmp.Compare(ta, tb)
	}
	return cmp.Compare(db, da)
}

// decimalDigits returns the number of decimal digits of n >= 0.
func decimalDigits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// TupleID identifies a base tuple inside an instance: the relation it lives
// in plus its full value. Because full tuples are set-unique within a
// relation, this is a sound identity.
type TupleID struct {
	Relation string
	Tuple    Tuple
}

// Key returns a canonical map key for the identity: the relation name, a
// "|" and the tuple's Encode form.
func (id TupleID) Key() string {
	var buf [64]byte
	return string(id.AppendKey(buf[:0]))
}

// AppendKey appends the Key form of the identity to dst and returns the
// extended slice.
func (id TupleID) AppendKey(dst []byte) []byte {
	dst = append(dst, id.Relation...)
	dst = append(dst, '|')
	return id.Tuple.AppendEncode(dst)
}

// CompareKey orders id and o as their Key strings compare, without
// building them unless one relation name is the other's followed by "|".
func (id TupleID) CompareKey(o TupleID) int {
	a, b := id.Relation, o.Relation
	if a == b {
		return id.Tuple.CompareEncode(o.Tuple)
	}
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 {
		return c
	}
	// One name is a proper prefix of the other: the shorter key's "|"
	// meets the longer name's next byte.
	if len(a) < len(b) && b[n] != '|' {
		return cmp.Compare('|', b[n])
	}
	if len(b) < len(a) && a[n] != '|' {
		return cmp.Compare(a[n], '|')
	}
	var x, y [64]byte
	return bytes.Compare(id.AppendKey(x[:0]), o.AppendKey(y[:0]))
}

// Equal reports whether id and o name the same base tuple.
func (id TupleID) Equal(o TupleID) bool {
	return id.Relation == o.Relation && id.Tuple.Equal(o.Tuple)
}

// String renders the identity as Relation(a,b,c).
func (id TupleID) String() string {
	var buf [64]byte
	return string(id.Tuple.AppendString(append(buf[:0], id.Relation...)))
}

// Schema describes one relation symbol: a name, attribute names, and the key
// attribute positions. Every relation in the paper's setting carries a key
// (Section II.B, "key preserving").
type Schema struct {
	Name  string
	Attrs []string
	// Key lists the attribute positions forming the (primary) key. It must
	// be non-empty and strictly increasing.
	Key []int
}

// NewSchema builds a relation schema. Attribute names must be unique and the
// key positions valid; otherwise an error is returned.
func NewSchema(name string, attrs []string, key []int) (*Schema, error) {
	if name == "" {
		return nil, errors.New("relation: empty relation name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation %s: zero arity", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation %s: empty attribute name", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("relation %s: duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("relation %s: empty key", name)
	}
	prev := -1
	for _, p := range key {
		if p <= prev {
			return nil, fmt.Errorf("relation %s: key positions must be strictly increasing, got %v", name, key)
		}
		if p < 0 || p >= len(attrs) {
			return nil, fmt.Errorf("relation %s: key position %d out of range [0,%d)", name, p, len(attrs))
		}
		prev = p
	}
	return &Schema{Name: name, Attrs: append([]string(nil), attrs...), Key: append([]int(nil), key...)}, nil
}

// MustSchema is NewSchema that panics on error; for tests and static
// workload definitions.
func MustSchema(name string, attrs []string, key []int) *Schema {
	s, err := NewSchema(name, attrs, key)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// IsKeyPos reports whether attribute position p belongs to the key.
func (s *Schema) IsKeyPos(p int) bool { return slices.Contains(s.Key, p) }

// String renders the schema as Name(a, b*, c) with key attributes starred.
func (s *Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		if s.IsKeyPos(i) {
			parts[i] = a + "*"
		} else {
			parts[i] = a
		}
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Errors returned by Relation and Instance mutation methods.
var (
	// ErrArity is returned when a tuple's length does not match the schema.
	ErrArity = errors.New("relation: tuple arity mismatch")
	// ErrKeyViolation is returned on insert of a tuple whose key values
	// collide with a different existing tuple.
	ErrKeyViolation = errors.New("relation: key constraint violation")
	// ErrNoSuchRelation is returned when an operation names an unknown
	// relation.
	ErrNoSuchRelation = errors.New("relation: no such relation")
	// ErrDuplicate is returned on insert of a tuple already present.
	ErrDuplicate = errors.New("relation: duplicate tuple")
)

// Relation is a finite set of tuples over a schema, with the key constraint
// enforced on insert. Every relation has a key, so a tuple is present
// exactly when its key values lead to a row holding an equal tuple: one
// Table of rows, hashed by key values, serves inserts, lookups and
// deletes.
type Relation struct {
	schema *Schema
	// rows holds the tuples in insertion order; a deleted row is nil.
	rows []Tuple
	// index holds the live rows, hashed by their key values; its Len is
	// the relation's.
	index Table
	// shared is set once a Tuples() snapshot aliases rows; Delete then
	// copies rows before its tombstone, so the snapshot keeps its tuples.
	shared atomic.Bool
	// snap is the Tuples() snapshot of a state with deleted rows, built
	// on first use; Insert and Delete drop it. Concurrent readers agree
	// on one snapshot through CompareAndSwap.
	snap atomic.Pointer[[]Tuple]
}

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.index.Len() }

// keyHash hashes t's key values.
func (r *Relation) keyHash(t Tuple) uint64 {
	var h uint64
	for _, p := range r.schema.Key {
		h = mix(h, t[p])
	}
	return h
}

// rowHash hashes a live row's key values.
func (r *Relation) rowHash(row int32) uint64 { return r.keyHash(r.rows[row]) }

// probe returns the row whose key values equal t's, with its slot, or
// -1 and the empty slot where t belongs; h is t's keyHash.
func (r *Relation) probe(t Tuple, h uint64) (row int32, slot int) {
	return r.index.Find(h, func(row int32) bool {
		u := r.rows[row]
		for _, p := range r.schema.Key {
			if t[p] != u[p] {
				return false
			}
		}
		return true
	})
}

// Insert adds a tuple. It returns ErrArity on arity mismatch,
// ErrDuplicate if the exact tuple is already present, and ErrKeyViolation
// if a different tuple with the same key values exists.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("%w: relation %s expects arity %d, got %d", ErrArity, r.schema.Name, r.schema.Arity(), len(t))
	}
	h := r.keyHash(t)
	i, slot := r.probe(t, h)
	if i >= 0 {
		if r.rows[i].Equal(t) {
			return fmt.Errorf("%w: %s%s", ErrDuplicate, r.schema.Name, t)
		}
		return fmt.Errorf("%w: %s%s collides on key with %s%s", ErrKeyViolation, r.schema.Name, t, r.schema.Name, r.rows[i])
	}
	r.rows = append(r.rows, t.Clone())
	r.index.Insert(slot, int32(len(r.rows))-1, h, r.rowHash)
	r.dropSnapshot()
	return nil
}

// dropSnapshot forgets the Tuples() snapshot after a change. Slices
// already handed out keep the tuples they had.
func (r *Relation) dropSnapshot() {
	if r.snap.Load() != nil {
		r.snap.Store(nil)
	}
}

// Contains reports whether the exact tuple is present.
func (r *Relation) Contains(t Tuple) bool {
	_, _, ok := r.find(t)
	return ok
}

// find returns the row holding exactly t, if any, and its slot.
func (r *Relation) find(t Tuple) (row int32, slot int, ok bool) {
	if len(t) != r.schema.Arity() {
		return 0, 0, false
	}
	row, slot = r.probe(t, r.keyHash(t))
	return row, slot, row >= 0 && r.rows[row].Equal(t)
}

// Delete removes the exact tuple, reporting whether it was present. Its
// row stays as a tombstone; a later re-insert appends a new row.
func (r *Relation) Delete(t Tuple) bool {
	row, slot, ok := r.find(t)
	if !ok {
		return false
	}
	if r.shared.Load() {
		r.rows = slices.Clone(r.rows)
		r.shared.Store(false)
	}
	r.index.Delete(slot, r.rowHash)
	r.rows[row] = nil
	r.dropSnapshot()
	return true
}

// Tuples returns all tuples in insertion order. The slice is a snapshot
// shared by every call until the next Insert or Delete, which leaves it
// unchanged, so two calls over one state return the same backing array;
// callers must not modify the slice or its tuples. With no row deleted
// the snapshot is the row array itself, capped at its length, so that
// appending to it copies instead of writing into the slots Insert fills.
func (r *Relation) Tuples() []Tuple {
	live := r.Len()
	if live == len(r.rows) {
		if !r.shared.Load() {
			r.shared.Store(true)
		}
		return r.rows[:live:live]
	}
	if p := r.snap.Load(); p != nil {
		return *p
	}
	out := make([]Tuple, 0, live)
	for _, t := range r.rows {
		if t != nil {
			out = append(out, t)
		}
	}
	if !r.snap.CompareAndSwap(nil, &out) {
		return *r.snap.Load()
	}
	return out
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.schema)
	for _, t := range r.Tuples() {
		// Insert cannot fail: tuples came from a consistent relation.
		if err := c.Insert(t); err != nil {
			panic("relation: clone insert failed: " + err.Error())
		}
	}
	return c
}

// Instance is a database instance: a collection of relations, one per
// relation symbol of the schema.
type Instance struct {
	rels  map[string]*Relation
	names []string
}

// NewInstance creates an instance with the given relation schemas.
func NewInstance(schemas ...*Schema) *Instance {
	db := &Instance{rels: make(map[string]*Relation)}
	for _, s := range schemas {
		db.AddRelation(s)
	}
	return db
}

// AddRelation registers a new empty relation; replacing an existing one is
// not allowed and panics, since schemas are static in this library.
func (db *Instance) AddRelation(s *Schema) *Relation {
	if _, ok := db.rels[s.Name]; ok {
		panic("relation: duplicate relation " + s.Name)
	}
	r := NewRelation(s)
	db.rels[s.Name] = r
	db.names = append(db.names, s.Name)
	return r
}

// Detach copies every value, relation name and attribute of the
// instance into storage of its own, each distinct value once, so that
// the instance no longer keeps alive the text it was parsed from. Call
// it on an instance that stays resident, before anything else takes its
// values.
func (db *Instance) Detach() {
	// Sized for one new value a tuple, which spares most databases the
	// table's growth.
	in := interner{seen: make(map[string]string, db.Size())}
	rels := make(map[string]*Relation, len(db.rels))
	for i, name := range db.names {
		r := db.rels[name]
		s := r.schema
		s.Name = in.copy(s.Name)
		for j, a := range s.Attrs {
			s.Attrs[j] = in.copy(a)
		}
		db.names[i] = s.Name
		rels[s.Name] = r
		for _, t := range r.rows {
			for j, v := range t {
				t[j] = Value(in.copy(string(v)))
			}
		}
	}
	db.rels = rels
}

// interner copies strings out of whatever they are cut from, each
// distinct string once. The copies are packed into chunks that double in
// size, so a database's values take a few allocations and at most twice
// their bytes.
type interner struct {
	seen  map[string]string
	chunk strings.Builder
}

// copy returns the copy of s, making it on s's first occurrence.
func (in *interner) copy(s string) string {
	if c, ok := in.seen[s]; ok {
		return c
	}
	if in.chunk.Cap()-in.chunk.Len() < len(s) {
		// Strings already cut from the old chunk keep it alive.
		size := max(2*in.chunk.Cap(), len(s), 64)
		in.chunk = strings.Builder{}
		in.chunk.Grow(size)
	}
	start := in.chunk.Len()
	in.chunk.WriteString(s)
	// The builder only appends within its capacity, so the bytes under
	// String() stay fixed.
	c := in.chunk.String()[start:]
	in.seen[s] = c
	return c
}

// Relation returns the named relation, or nil if absent.
func (db *Instance) Relation(name string) *Relation { return db.rels[name] }

// HasRelation reports whether the instance has a relation with this name.
func (db *Instance) HasRelation(name string) bool {
	_, ok := db.rels[name]
	return ok
}

// RelationNames returns relation names in registration order.
func (db *Instance) RelationNames() []string {
	return append([]string(nil), db.names...)
}

// Insert adds a tuple to the named relation.
func (db *Instance) Insert(rel string, t Tuple) error {
	r, ok := db.rels[rel]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchRelation, rel)
	}
	return r.Insert(t)
}

// MustInsert inserts and panics on error; for tests and static workloads.
func (db *Instance) MustInsert(rel string, vals ...string) {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Value(v)
	}
	if err := db.Insert(rel, t); err != nil {
		panic(err)
	}
}

// Delete removes a tuple from the named relation, reporting whether it was
// present. Deleting from an unknown relation returns false.
func (db *Instance) Delete(id TupleID) bool {
	r, ok := db.rels[id.Relation]
	if !ok {
		return false
	}
	return r.Delete(id.Tuple)
}

// Contains reports whether the identified tuple is present.
func (db *Instance) Contains(id TupleID) bool {
	r, ok := db.rels[id.Relation]
	if !ok {
		return false
	}
	return r.Contains(id.Tuple)
}

// Size returns the total number of tuples across all relations (|D|).
func (db *Instance) Size() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// AllTuples returns the identities of every tuple in the instance, relations
// in registration order, tuples in insertion order.
func (db *Instance) AllTuples() []TupleID {
	out := make([]TupleID, 0, db.Size())
	for _, name := range db.names {
		for _, t := range db.rels[name].Tuples() {
			out = append(out, TupleID{Relation: name, Tuple: t})
		}
	}
	return out
}

// Clone returns a deep copy of the instance.
func (db *Instance) Clone() *Instance {
	c := &Instance{rels: make(map[string]*Relation, len(db.rels)), names: append([]string(nil), db.names...)}
	for name, r := range db.rels {
		c.rels[name] = r.Clone()
	}
	return c
}

// Without returns a copy of the instance with the given tuples removed
// (D \ ΔD). Unknown tuples are ignored.
func (db *Instance) Without(deleted []TupleID) *Instance {
	c := db.Clone()
	for _, id := range deleted {
		c.Delete(id)
	}
	return c
}

// String renders the instance relation by relation, tuples sorted, for
// debugging and golden tests.
func (db *Instance) String() string {
	var b strings.Builder
	for _, name := range db.names {
		r := db.rels[name]
		fmt.Fprintf(&b, "%s:\n", r.schema)
		lines := make([]string, 0, r.Len())
		for _, t := range r.Tuples() {
			lines = append(lines, "  "+t.String())
		}
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
