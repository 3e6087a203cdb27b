package relation

import "hash/maphash"

// seed keys Tuple.Hash. One per process: the tables only find things
// and never decide an order, so nothing depends on its value.
var seed = maphash.MakeSeed()

// Hash hashes the value tuple t, for a Table.
func (t Tuple) Hash() uint64 {
	var h uint64
	for _, v := range t {
		h = mix(h, v)
	}
	return h
}

// mix folds v into h, the hash of the values before it, so that a tuple
// whose values are not adjacent hashes as Tuple.Hash of them.
func mix(h uint64, v Value) uint64 {
	return h*0x100000001b3 ^ maphash.String(seed, string(v))
}

// Table is an open-addressing hash table of int32 ids, at most half full
// and probed linearly. It keeps no keys: its user knows what each id
// stands for, gives each lookup the hash of the key sought and equality
// against a stored id, and gives growth and deletion the hash of any
// stored id. Deletion shifts later entries of the probe run back into
// the hole, so no slot is a tombstone. The zero Table is empty.
type Table struct {
	// slots holds id + 1, or zero when empty; its length is zero or a
	// power of two.
	slots []int32
	n     int
}

// Len returns the number of ids in the table.
func (t *Table) Len() int { return t.n }

// Find walks the probe run of hash h and returns the first id eq
// accepts, with its slot, or -1 and the empty slot where an id with
// hash h belongs.
func (t *Table) Find(h uint64, eq func(id int32) bool) (id int32, slot int) {
	if len(t.slots) == 0 {
		return -1, 0
	}
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if eq(s - 1) {
			return s - 1, i
		}
	}
}

// Insert puts id, whose hash is h, into the empty slot Find returned for
// h. When the table would pass half full it first doubles, placing every
// id again by hashOf.
func (t *Table) Insert(slot int, id int32, h uint64, hashOf func(id int32) uint64) {
	if 2*(t.n+1) > len(t.slots) {
		never := func(int32) bool { return false }
		old := t.slots
		t.slots = make([]int32, max(8, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				_, i := t.Find(hashOf(s-1), never)
				t.slots[i] = s
			}
		}
		_, slot = t.Find(h, never)
	}
	t.slots[slot] = id + 1
	t.n++
}

// Delete removes the id at slot, where Find found it: each later entry
// of the probe run moves into the hole when the hole lies between its
// home slot, by hashOf, and it.
func (t *Table) Delete(slot int, hashOf func(id int32) uint64) {
	mask := len(t.slots) - 1
	for j := (slot + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := int(hashOf(t.slots[j]-1)) & mask
		if (j-home)&mask >= (j-slot)&mask {
			t.slots[slot] = t.slots[j]
			slot = j
		}
	}
	t.slots[slot] = 0
	t.n--
}
