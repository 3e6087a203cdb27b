package view

import (
	"cmp"
	"slices"
	"sort"

	"delprop/internal/relation"
)

// Index is the dense provenance index of a view set: which derivations of
// which view tuples each base tuple occurs in. This is the structure
// behind the paper's observation that "checking the view side-effect can
// be easily performed by finding the occurrences of key values of the
// deleted relation tuples in the view".
//
// Base tuples that occur in some derivation get tuple ids 0..NumTuples()-1
// in first-occurrence order; view tuples get ref ids 0..NumRefs()-1 in
// (view, answer) order; derivations get ids in (ref, derivation) order, so
// every ref owns one contiguous run of derivation ids. An Index is
// immutable once built and safe for concurrent use.
type Index struct {
	views   []*View
	tupleOf map[string]int32   // TupleID.Key -> tuple id
	tuples  []relation.TupleID // tuple id -> base tuple
	refs    []TupleRef         // ref id -> view tuple
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
	// occDeriv[occStart[t]:occStart[t+1]] lists, ascending, the
	// derivations tuple t occurs in, each once however many atoms of the
	// derivation it matches.
	occStart []int32
	occDeriv []int32
}

// BuildIndex interns the views' provenance.
func BuildIndex(views []*View) *Index {
	x := &Index{views: views, tupleOf: make(map[string]int32), refDerivs: []int32{0}}
	var (
		key         []byte
		occCount    []int32 // per tuple: derivations it occurs in
		derivTuples []int32 // per derivation, its distinct tuple ids
		derivStart  = []int32{0}
	)
	for _, v := range views {
		x.viewStart = append(x.viewStart, int32(len(x.refs)))
		for _, ans := range v.Result.Answers() {
			r := int32(len(x.refs))
			x.refs = append(x.refs, TupleRef{View: v.Index, Tuple: ans.Tuple})
			for _, d := range ans.Derivations {
				x.derivRef = append(x.derivRef, r)
				start := len(derivTuples)
				for _, id := range d {
					key = id.AppendKey(key[:0])
					t, ok := x.tupleOf[string(key)]
					if !ok {
						t = int32(len(x.tuples))
						x.tupleOf[string(key)] = t
						x.tuples = append(x.tuples, id)
						occCount = append(occCount, 0)
					}
					if !slices.Contains(derivTuples[start:], t) {
						derivTuples = append(derivTuples, t)
						occCount[t]++
					}
				}
				derivStart = append(derivStart, int32(len(derivTuples)))
			}
			x.refDerivs = append(x.refDerivs, int32(len(x.derivRef)))
		}
	}
	x.viewStart = append(x.viewStart, int32(len(x.refs)))

	// Counting sort of (tuple, derivation) pairs by tuple; walking
	// derivations in id order leaves each tuple's run ascending.
	x.occStart = make([]int32, len(x.tuples)+1)
	for t, c := range occCount {
		x.occStart[t+1] = x.occStart[t] + c
	}
	x.occDeriv = make([]int32, len(derivTuples))
	fill := slices.Clone(x.occStart[:len(x.tuples)])
	for d := range x.derivRef {
		for _, t := range derivTuples[derivStart[d]:derivStart[d+1]] {
			x.occDeriv[fill[t]] = int32(d)
			fill[t]++
		}
	}

	keys := make([]string, len(x.refs))
	byKey := make([]int32, len(x.refs))
	for r, ref := range x.refs {
		keys[r] = ref.Key()
		byKey[r] = int32(r)
	}
	sort.Slice(byKey, func(i, j int) bool { return keys[byKey[i]] < keys[byKey[j]] })
	x.refRank = make([]int32, len(x.refs))
	for rank, r := range byKey {
		x.refRank[r] = int32(rank)
	}
	return x
}

// NumTuples returns the number of base tuples occurring in some
// derivation.
func (x *Index) NumTuples() int { return len(x.tuples) }

// NumRefs returns ‖V‖, the number of view tuples.
func (x *Index) NumRefs() int { return len(x.refs) }

// LookupTuple returns the tuple id of a base tuple; ok is false when the
// tuple occurs in no derivation.
func (x *Index) LookupTuple(id relation.TupleID) (t int32, ok bool) {
	var buf [64]byte
	t, ok = x.tupleOf[string(id.AppendKey(buf[:0]))]
	return t, ok
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

// Occurrence records that a base tuple participates in (a derivation of) a
// view tuple.
type Occurrence struct {
	Ref int32 // ref id
	// Critical reports whether deleting the base tuple necessarily kills
	// the view tuple, i.e. the tuple occurs in every derivation of it. For
	// key-preserving queries every occurrence is critical.
	Critical bool
}

// Occurrences returns the view tuples tuple t participates in, in
// ascending ref id order.
func (x *Index) Occurrences(t int32) []Occurrence {
	var out []Occurrence
	run := x.occDeriv[x.occStart[t]:x.occStart[t+1]]
	for i := 0; i < len(run); {
		r := x.derivRef[run[i]]
		j := i + 1
		for j < len(run) && x.derivRef[run[j]] == r {
			j++
		}
		out = append(out, Occurrence{Ref: r, Critical: int32(j-i) == x.numDerivs(r)})
		i = j
	}
	return out
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
