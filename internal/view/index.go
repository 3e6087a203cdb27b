package view

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

// Index is the dense provenance index of a view set: which derivations of
// which view tuples each base tuple occurs in. This is the structure
// behind the paper's observation that "checking the view side-effect can
// be easily performed by finding the occurrences of key values of the
// deleted relation tuples in the view".
//
// Base tuples that occur in some derivation get tuple ids
// 0..NumTuples()-1 in TupleID.Key order, so "sorted by key" is
// "ascending id"; view tuples get ref ids 0..NumRefs()-1 in (view,
// answer) order; derivations get ids in (ref, derivation) order, so
// every ref owns one contiguous run of derivation ids. The index holds
// no copy of the views' derivations or answer tuples: base tuples are
// (relation, row) pairs into the relation snapshots the views' Results
// keep, and a ref is its view and answer position. An Index is immutable
// once built and safe for concurrent use.
type Index struct {
	views []*View
	// rels are the relations the views read, in first-use order.
	rels []indexRel
	// atomRel[v][i] is the rels entry of view v's body atom i.
	atomRel [][]int32
	// tupleAt[t] is tuple t's relation and row.
	tupleAt []rowRef
	// refRank[r] is the rank of ref r's TupleRef.Key among all ref keys.
	// Delete and Undelete report refs in this order, which is string
	// order, not ref id order: "10|…" sorts before "2|…".
	refRank []int32
	// viewStart[v] is the first ref id of view v; viewStart[len(views)]
	// is NumRefs().
	viewStart []int32
	// refDerivs[r]..refDerivs[r+1] are ref r's derivation ids; view v's
	// Result derivation d is derivation refDerivs[viewStart[v]]+d.
	refDerivs []int32
	derivRef  []int32 // derivation id -> ref id
	// derivTuple[derivStart[d]:derivStart[d+1]] lists, ascending, the
	// distinct tuples of derivation d.
	derivStart []int32
	derivTuple []int32
	// occDeriv[occStart[t]:occStart[t+1]] lists, ascending, the
	// derivations tuple t occurs in, each once however many atoms of the
	// derivation it matches.
	occStart []int32
	occDeriv []int32
}

// indexRel is one relation the views read: its snapshot as the views'
// Results hold it, and per row the row's tuple id, or -1 when no
// derivation uses the row.
type indexRel struct {
	name   string
	tuples []relation.Tuple
	ids    []int32
}

// rowRef is a base tuple as a row of one of the index's relations.
type rowRef struct{ rel, row int32 }

// BuildIndex interns the views' provenance. The views must have been
// evaluated over one state of the instance, as Materialize does, so a
// relation's rows mean the same tuples in every view; BuildIndex panics
// otherwise.
func BuildIndex(views []*View) *Index {
	var nRefs, nDerivs, nIDs int
	for _, v := range views {
		res := v.Result
		nRefs += res.NumAnswers()
		nDerivs += res.NumDerivations()
		nIDs += res.NumDerivations() * len(v.Query.Body)
	}
	x := &Index{
		views:      views,
		atomRel:    make([][]int32, len(views)),
		viewStart:  make([]int32, 0, len(views)+1),
		refDerivs:  make([]int32, 1, nRefs+1),
		derivRef:   make([]int32, 0, nDerivs),
		derivStart: make([]int32, 1, nDerivs+1),
		derivTuple: make([]int32, 0, nIDs),
	}
	for v, vw := range views {
		x.atomRel[v] = make([]int32, len(vw.Query.Body))
		for i, a := range vw.Query.Body {
			x.atomRel[v][i] = x.internRel(a.Relation, vw.Result.AtomRows(i))
		}
	}
	// Intern tuples by (relation, row), numbering them first-seen.
	var r int32
	for v, vw := range views {
		res := vw.Result
		x.viewStart = append(x.viewStart, r)
		for a := range res.NumAnswers() {
			lo, hi := res.Derivations(a)
			for d := lo; d < hi; d++ {
				x.derivRef = append(x.derivRef, r)
				start := len(x.derivTuple)
				for i, row := range res.Rows(d) {
					k := x.atomRel[v][i]
					t := x.rels[k].ids[row]
					if t < 0 {
						t = int32(len(x.tupleAt))
						x.rels[k].ids[row] = t
						x.tupleAt = append(x.tupleAt, rowRef{k, row})
					}
					if !slices.Contains(x.derivTuple[start:], t) {
						x.derivTuple = append(x.derivTuple, t)
					}
				}
				x.derivStart = append(x.derivStart, int32(len(x.derivTuple)))
			}
			x.refDerivs = append(x.refDerivs, int32(len(x.derivRef)))
			r++
		}
	}
	x.viewStart = append(x.viewStart, r)

	// Rank refs and renumber tuples in key order, comparing integer
	// keys, then sort every derivation's run.
	keys := x.tupleKeys()
	x.rankRefs(keys)
	rank := x.renumberTuples(keys)
	for i, t := range x.derivTuple {
		x.derivTuple[i] = rank[t]
	}
	for d := range x.derivRef {
		slices.Sort(x.derivTuple[x.derivStart[d]:x.derivStart[d+1]])
	}

	// Counting sort of (tuple, derivation) pairs by tuple; walking
	// derivations in id order leaves each tuple's run ascending.
	n := len(x.tupleAt)
	x.occStart = make([]int32, n+1)
	for _, t := range x.derivTuple {
		x.occStart[t+1]++
	}
	for t := range n {
		x.occStart[t+1] += x.occStart[t]
	}
	x.occDeriv = make([]int32, len(x.derivTuple))
	fill := slices.Clone(x.occStart[:n])
	for d := range x.derivRef {
		for _, t := range x.DerivTuples(int32(d)) {
			x.occDeriv[fill[t]] = int32(d)
			fill[t]++
		}
	}
	return x
}

// internRel returns the rels entry of the named relation, adding it with
// the given snapshot on first use. Later views must hold the same
// snapshot: Relation.Tuples shares one backing array among all the
// evaluations of one instance state.
func (x *Index) internRel(name string, tuples []relation.Tuple) int32 {
	for k, rel := range x.rels {
		if rel.name != name {
			continue
		}
		if len(rel.tuples) != len(tuples) || len(tuples) > 0 && &rel.tuples[0] != &tuples[0] {
			panic("view: BuildIndex over views of different instance states")
		}
		return int32(k)
	}
	ids := make([]int32, len(tuples))
	for i := range ids {
		ids[i] = -1
	}
	x.rels = append(x.rels, indexRel{name: name, tuples: tuples, ids: ids})
	return int32(len(x.rels) - 1)
}

// tupleID returns the base tuple at a relation row.
func (x *Index) tupleID(at rowRef) relation.TupleID {
	rel := &x.rels[at.rel]
	return relation.TupleID{Relation: rel.name, Tuple: rel.tuples[at.row]}
}

// tupleKeys are integer sort keys of the interned tuples, in first-seen
// order: tuple t's key is the width entries from key[t*width], its
// relation's rank among the relations' "name|" prefixes followed by the
// rank of each of its values in Value.CompareEncode order, padded with
// zeros. Every entry is below limit. Keys compare as the tuples'
// TupleID.Key strings do, unless exact is false: then some "name|"
// begins another relation's name, and tuples of the two relations
// interleave in key order.
type tupleKeys struct {
	key          []int32
	width, limit int
	exact        bool
}

// tupleKeys ranks the relations by prefix and every distinct value of an
// interned tuple once, and writes each tuple's key.
func (x *Index) tupleKeys() tupleKeys {
	prefixes := make([]string, len(x.rels))
	width := 1
	for k, rel := range x.rels {
		prefixes[k] = rel.name + "|"
		if len(rel.tuples) > 0 {
			width = max(width, 1+len(rel.tuples[0]))
		}
	}
	relOrder := sortedOrder(len(prefixes), func(a, b int32) int { return strings.Compare(prefixes[a], prefixes[b]) })
	relRank := make([]int32, len(x.rels))
	exact := true
	for i, k := range relOrder {
		relRank[k] = int32(i)
		if i > 0 && strings.HasPrefix(prefixes[k], prefixes[relOrder[i-1]]) {
			exact = false
		}
	}

	// Sort every value position by its value's Encode part and number the
	// distinct values in that order.
	tk := tupleKeys{key: make([]int32, len(x.tupleAt)*width), width: width, exact: exact}
	nVals := 0
	for _, at := range x.tupleAt {
		nVals += len(x.rels[at.rel].tuples[at.row])
	}
	byValue := make([]valuePos, 0, nVals)
	for t, at := range x.tupleAt {
		tk.key[t*width] = relRank[at.rel]
		for i, v := range x.rels[at.rel].tuples[at.row] {
			byValue = append(byValue, valuePos{v.EncodePrefix(), int32(t*width + 1 + i)})
		}
	}
	value := func(pos int32) relation.Value {
		at := x.tupleAt[int(pos)/width]
		return x.rels[at.rel].tuples[at.row][int(pos)%width-1]
	}
	sortByPrefix(byValue)
	var rank int32
	for i := 0; i < len(byValue); {
		// Values whose prefixes tie are ordered by whole value.
		j := i + 1
		mixed := false
		for j < len(byValue) && byValue[j].prefix == byValue[i].prefix {
			mixed = mixed || value(byValue[j].pos) != value(byValue[i].pos)
			j++
		}
		run := byValue[i:j]
		if mixed {
			slices.SortFunc(run, func(a, b valuePos) int { return value(a.pos).CompareEncode(value(b.pos)) })
		}
		for k, vp := range run {
			if k > 0 && value(vp.pos) != value(run[k-1].pos) {
				rank++
			}
			tk.key[vp.pos] = rank
		}
		rank++
		i = j
	}
	tk.limit = max(len(x.rels), int(rank))
	return tk
}

// valuePos is a value position in tupleKeys.key and its value's
// EncodePrefix.
type valuePos struct {
	prefix uint64
	pos    int32
}

// sortByPrefix sorts vps by prefix: a stable radix sort, one counting
// pass per byte, least significant first, skipping bytes every prefix
// shares.
func sortByPrefix(vps []valuePos) {
	if len(vps) == 0 {
		return
	}
	var counts [8][256]int32
	for _, vp := range vps {
		for b := range counts {
			counts[b][byte(vp.prefix>>(8*b))]++
		}
	}
	src, dst := vps, make([]valuePos, len(vps))
	for b := range counts {
		c := &counts[b]
		if c[byte(src[0].prefix>>(8*b))] == int32(len(src)) {
			continue
		}
		var sum int32
		for k, n := range c {
			c[k] = sum
			sum += n
		}
		for _, vp := range src {
			k := byte(vp.prefix >> (8 * b))
			dst[c[k]] = vp
			c[k]++
		}
		src, dst = dst, src
	}
	copy(vps, src)
}

// of returns tuple t's key.
func (tk tupleKeys) of(t int32) []int32 {
	return tk.key[int(t)*tk.width : (int(t)+1)*tk.width]
}

// renumberTuples gives the tuples ids in key order, rewriting tupleAt and
// the rows' ids, and returns each first-seen id's new id.
func (x *Index) renumberTuples(tk tupleKeys) []int32 {
	var byKey []int32
	if tk.exact {
		byKey = lexOrder(tk.key, tk.width, tk.limit)
	} else {
		byKey = sortedOrder(len(x.tupleAt), func(a, b int32) int { return x.tupleID(x.tupleAt[a]).CompareKey(x.tupleID(x.tupleAt[b])) })
	}
	rank := make([]int32, len(byKey))
	tupleAt := make([]rowRef, len(byKey))
	for t, old := range byKey {
		at := x.tupleAt[old]
		tupleAt[t] = at
		rank[old] = int32(t)
		x.rels[at.rel].ids[at.row] = int32(t)
	}
	x.tupleAt = tupleAt
	return rank
}

// rankRefs fills refRank without building a TupleRef.Key per ref. The
// keys' "view|" prefixes order the views, since none is a prefix of
// another, and within one view the head tuples' Encode forms order the
// answers. A head value is its variable's value in the answer's first
// derivation, so the answers compare as the value ranks in tk there do.
// It must run before renumberTuples, while rows map to first-seen ids.
func (x *Index) rankRefs(tk tupleKeys) {
	prefixes := make([]string, len(x.views))
	for v, vw := range x.views {
		prefixes[v] = strconv.Itoa(vw.Index) + "|"
	}
	x.refRank = make([]int32, x.NumRefs())
	var rank int32
	var heads []int32
	for _, v := range sortedOrder(len(prefixes), func(a, b int32) int { return strings.Compare(prefixes[a], prefixes[b]) }) {
		res := x.views[v].Result
		at := headAtoms(x.views[v].Query)
		heads = heads[:0]
		for a := range res.NumAnswers() {
			lo, _ := res.Derivations(a)
			rows := res.Rows(lo)
			for _, h := range at {
				t := x.rels[x.atomRel[v][h.atom]].ids[rows[h.atom]]
				heads = append(heads, tk.of(t)[1+h.pos])
			}
		}
		lo := x.viewStart[v]
		for _, a := range lexOrder(heads, len(at), tk.limit) {
			x.refRank[lo+a] = rank
			rank++
		}
	}
}

// atomPos is a position of a body atom.
type atomPos struct{ atom, pos int }

// headAtoms returns, for each head variable in first-occurrence order,
// its first position in the body. A repeated head variable is left out:
// heads that agree up to its first position agree on its repeats too.
func headAtoms(q *cq.Query) []atomPos {
	var out []atomPos
	for j, h := range q.Head {
		if slices.ContainsFunc(q.Head[:j], func(t cq.Term) bool { return t.Var == h.Var }) {
			continue
		}
	body:
		for i, a := range q.Body {
			for p, t := range a.Terms {
				if t.Var == h.Var {
					out = append(out, atomPos{i, p})
					break body
				}
			}
		}
	}
	return out
}

// sortedOrder returns 0..n-1 sorted by cmp.
func sortedOrder(n int, cmp func(a, b int32) int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, cmp)
	return order
}

// NumTuples returns the number of base tuples occurring in some
// derivation.
func (x *Index) NumTuples() int { return len(x.tupleAt) }

// NumRefs returns ‖V‖, the number of view tuples.
func (x *Index) NumRefs() int { return int(x.viewStart[len(x.views)]) }

// LookupTuple returns the tuple id of a base tuple, a binary search by
// key over the tuple ids; ok is false when the tuple occurs in no
// derivation.
func (x *Index) LookupTuple(id relation.TupleID) (t int32, ok bool) {
	i := sort.Search(len(x.tupleAt), func(i int) bool { return x.tupleID(x.tupleAt[i]).CompareKey(id) >= 0 })
	return int32(i), i < len(x.tupleAt) && x.tupleID(x.tupleAt[i]).Equal(id)
}

// Tuple returns the base tuple behind a tuple id.
func (x *Index) Tuple(t int32) relation.TupleID { return x.tupleID(x.tupleAt[t]) }

// AtomTuple returns the tuple id of the base tuple body atom i of its
// query matched in derivation d.
func (x *Index) AtomTuple(d int32, i int) int32 {
	v := x.viewOf(x.derivRef[d])
	row := x.views[v].Result.Rows(int(d - x.refDerivs[x.viewStart[v]]))[i]
	return x.rels[x.atomRel[v][i]].ids[row]
}

// LookupRef returns the ref id of a view tuple; ok is false when it is not
// a tuple of its view.
func (x *Index) LookupRef(ref TupleRef) (r int32, ok bool) {
	if ref.View < 0 || ref.View >= len(x.views) {
		return 0, false
	}
	i, ok := x.views[ref.View].Result.Position(ref.Tuple)
	if !ok {
		return 0, false
	}
	return x.viewStart[ref.View] + int32(i), true
}

// Ref returns the view tuple behind a ref id.
func (x *Index) Ref(r int32) TupleRef {
	v := x.viewOf(r)
	return TupleRef{View: x.views[v].Index, Tuple: x.views[v].Result.Tuple(int(r - x.viewStart[v]))}
}

// viewOf returns the view ref r belongs to: the first whose refs end
// after r.
func (x *Index) viewOf(r int32) int {
	return sort.Search(len(x.views), func(v int) bool { return x.viewStart[v+1] > r })
}

// RefRank returns ref r's position among all view tuples in
// TupleRef.Key order.
func (x *Index) RefRank(r int32) int32 { return x.refRank[r] }

// Derivations returns the derivation ids [lo, hi) of ref r, in the order
// of its answer's Derivations.
func (x *Index) Derivations(r int32) (lo, hi int32) { return x.refDerivs[r], x.refDerivs[r+1] }

// DerivTuples returns the distinct tuples of derivation d, ascending —
// that is, in key order. The slice is the index's own; callers must not
// modify it.
func (x *Index) DerivTuples(d int32) []int32 {
	lo, hi := x.derivStart[d], x.derivStart[d+1]
	return x.derivTuple[lo:hi:hi]
}

// Occurrence records that a base tuple participates in (a derivation of) a
// view tuple.
type Occurrence struct {
	Ref int32 // ref id
	// Critical reports whether deleting the base tuple necessarily kills
	// the view tuple, i.e. the tuple occurs in every derivation of it. For
	// key-preserving queries every occurrence is critical.
	Critical bool
}

// AppendOccurrences appends to dst the view tuples tuple t participates
// in, in ascending ref id order, and returns the extended slice.
func (x *Index) AppendOccurrences(dst []Occurrence, t int32) []Occurrence {
	run := x.occDeriv[x.occStart[t]:x.occStart[t+1]]
	for i := 0; i < len(run); {
		r := x.derivRef[run[i]]
		j := i + 1
		for j < len(run) && x.derivRef[run[j]] == r {
			j++
		}
		dst = append(dst, Occurrence{Ref: r, Critical: int32(j-i) == x.numDerivs(r)})
		i = j
	}
	return dst
}

// Killed returns, in ascending ref id order, the view tuples that no
// derivation survives once the given tuples are deleted. Duplicates in
// deleted are harmless. The work is proportional to the occurrences of
// the deleted tuples, not to ‖V‖.
func (x *Index) Killed(deleted []int32) []int32 {
	var hit []int32
	for _, t := range deleted {
		hit = append(hit, x.occDeriv[x.occStart[t]:x.occStart[t+1]]...)
	}
	slices.Sort(hit)
	hit = slices.Compact(hit)
	var out []int32
	for i := 0; i < len(hit); {
		r := x.derivRef[hit[i]]
		j := i + 1
		for j < len(hit) && x.derivRef[hit[j]] == r {
			j++
		}
		if int32(j-i) == x.numDerivs(r) {
			out = append(out, r)
		}
		i = j
	}
	return out
}

// numDerivs returns how many derivations ref r has.
func (x *Index) numDerivs(r int32) int32 { return x.refDerivs[r+1] - x.refDerivs[r] }

// lexOrder returns the indexes of the rows keys[i*width:(i+1)*width],
// width >= 1, sorted lexicographically, equal rows by index; every entry
// lies in [0, limit). When a row's entries and its index fit in 64 bits
// together, each row is packed into one uint64 and the packed words are
// sorted; otherwise rows are compared entry by entry.
func lexOrder(keys []int32, width, limit int) []int32 {
	n := len(keys) / width
	entryBits := bits.Len(uint(max(limit, 1) - 1))
	idxBits := bits.Len(uint(max(n, 1) - 1))
	if width*entryBits+idxBits > 64 {
		return sortedOrder(n, func(a, b int32) int {
			if c := slices.Compare(keys[int(a)*width:int(a+1)*width], keys[int(b)*width:int(b+1)*width]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	packed := make([]uint64, n)
	for i := range packed {
		var w uint64
		for _, e := range keys[i*width : (i+1)*width] {
			w = w<<entryBits | uint64(e)
		}
		packed[i] = w<<idxBits | uint64(i)
	}
	slices.Sort(packed)
	order := make([]int32, n)
	for i, w := range packed {
		order[i] = int32(w & (1<<idxBits - 1))
	}
	return order
}
