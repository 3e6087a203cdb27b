package view

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

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
// every ref owns one contiguous run of derivation ids. An Index is
// immutable once built and safe for concurrent use.
type Index struct {
	views  []*View
	keys   []string           // tuple id -> TupleID.Key, ascending
	tuples []relation.TupleID // tuple id -> base tuple
	refs   []TupleRef         // ref id -> view tuple
	// refRank[r] is the rank of refs[r].Key() among all ref keys. Delete
	// and Undelete report refs in this order, which is string order, not
	// ref id order: "10|…" sorts before "2|…".
	refRank []int32
	// viewStart[v] is the first ref id of view v; viewStart[len(views)]
	// is NumRefs().
	viewStart []int32
	// refDerivs[r]..refDerivs[r+1] are ref r's derivation ids.
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

// BuildIndex interns the views' provenance.
func BuildIndex(views []*View) *Index {
	var nRefs, nDerivs, nIDs int
	for _, v := range views {
		nRefs += v.Result.NumAnswers()
		for _, ans := range v.Result.Answers() {
			nDerivs += len(ans.Derivations)
			for _, d := range ans.Derivations {
				nIDs += len(d)
			}
		}
	}
	x := &Index{
		views:      views,
		refs:       make([]TupleRef, 0, nRefs),
		viewStart:  make([]int32, 0, len(views)+1),
		refDerivs:  make([]int32, 1, nRefs+1),
		derivRef:   make([]int32, 0, nDerivs),
		derivStart: make([]int32, 1, nDerivs+1),
		derivTuple: make([]int32, 0, nIDs),
	}
	var (
		buf       []byte
		keys      []string // first-seen tuple number -> TupleID.Key
		firstSeen = make(map[string]int32)
	)
	for _, v := range views {
		x.viewStart = append(x.viewStart, int32(len(x.refs)))
		for _, ans := range v.Result.Answers() {
			r := int32(len(x.refs))
			x.refs = append(x.refs, TupleRef{View: v.Index, Tuple: ans.Tuple})
			for _, d := range ans.Derivations {
				x.derivRef = append(x.derivRef, r)
				start := len(x.derivTuple)
				for _, id := range d {
					buf = id.AppendKey(buf[:0])
					t, ok := firstSeen[string(buf)]
					if !ok {
						t = int32(len(keys))
						k := string(buf)
						firstSeen[k] = t
						keys = append(keys, k)
						x.tuples = append(x.tuples, id)
					}
					if !slices.Contains(x.derivTuple[start:], t) {
						x.derivTuple = append(x.derivTuple, t)
					}
				}
				x.derivStart = append(x.derivStart, int32(len(x.derivTuple)))
			}
			x.refDerivs = append(x.refDerivs, int32(len(x.derivRef)))
		}
	}
	x.viewStart = append(x.viewStart, int32(len(x.refs)))

	// Renumber tuples in key order and sort every derivation's run.
	rank := make([]int32, len(keys))
	x.keys = make([]string, len(keys))
	tuples := make([]relation.TupleID, len(keys))
	for t, seen := range keyOrder(keys) {
		rank[seen] = int32(t)
		x.keys[t] = keys[seen]
		tuples[t] = x.tuples[seen]
	}
	x.tuples = tuples
	for i, t := range x.derivTuple {
		x.derivTuple[i] = rank[t]
	}
	for d := range x.derivRef {
		slices.Sort(x.derivTuple[x.derivStart[d]:x.derivStart[d+1]])
	}

	// Counting sort of (tuple, derivation) pairs by tuple; walking
	// derivations in id order leaves each tuple's run ascending.
	x.occStart = make([]int32, len(x.tuples)+1)
	for _, t := range x.derivTuple {
		x.occStart[t+1]++
	}
	for t := range x.tuples {
		x.occStart[t+1] += x.occStart[t]
	}
	x.occDeriv = make([]int32, len(x.derivTuple))
	fill := slices.Clone(x.occStart[:len(x.tuples)])
	for d := range x.derivRef {
		for _, t := range x.DerivTuples(int32(d)) {
			x.occDeriv[fill[t]] = int32(d)
			fill[t]++
		}
	}
	x.rankRefs()
	return x
}

// rankRefs fills refRank without building a TupleRef.Key per ref. The
// keys' "view|" prefixes order the views, since none is a prefix of
// another, and within one view the head encodings order the answers.
func (x *Index) rankRefs() {
	prefixes := make([]string, len(x.views))
	for v, vw := range x.views {
		prefixes[v] = strconv.Itoa(vw.Index) + "|"
	}
	x.refRank = make([]int32, len(x.refs))
	var rank int32
	var answers []int32
	for _, v := range keyOrder(prefixes) {
		lo, hi := x.viewStart[v], x.viewStart[v+1]
		answers = answers[:0]
		for i := int32(0); i < hi-lo; i++ {
			answers = append(answers, i)
		}
		res := x.views[v].Result
		slices.SortFunc(answers, func(a, b int32) int { return res.CompareAnswers(int(a), int(b)) })
		for _, i := range answers {
			x.refRank[lo+i] = rank
			rank++
		}
	}
}

// keyOrder returns the indexes of keys sorted by key.
func keyOrder(keys []string) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
	return order
}

// NumTuples returns the number of base tuples occurring in some
// derivation.
func (x *Index) NumTuples() int { return len(x.tuples) }

// NumRefs returns ‖V‖, the number of view tuples.
func (x *Index) NumRefs() int { return len(x.refs) }

// LookupTuple returns the tuple id of a base tuple, a binary search over
// the sorted keys; ok is false when the tuple occurs in no derivation.
func (x *Index) LookupTuple(id relation.TupleID) (t int32, ok bool) {
	var buf [64]byte
	key := id.AppendKey(buf[:0])
	i := sort.Search(len(x.keys), func(i int) bool { return x.keys[i] >= string(key) })
	return int32(i), i < len(x.keys) && x.keys[i] == string(key)
}

// Tuple returns the base tuple behind a tuple id.
func (x *Index) Tuple(t int32) relation.TupleID { return x.tuples[t] }

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
func (x *Index) Ref(r int32) TupleRef { return x.refs[r] }

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

// sortByRank orders ref ids by their TupleRef.Key.
func (x *Index) sortByRank(refs []int32) {
	if len(refs) > 1 {
		slices.SortFunc(refs, func(a, b int32) int { return cmp.Compare(x.refRank[a], x.refRank[b]) })
	}
}
