// Package lineage exposes the provenance connection of Section V in both
// directions. Backward, why- and where-provenance of a view tuple are read
// from its view's cq.Result: why-provenance is the set of its derivations
// (witness sets of base tuples), where-provenance of one output cell the
// set of source cells it was copied from. Forward, Touched maps a set of
// base tuples to the view tuples they occur in, over a view.Index the
// caller holds; it is the one "touched by a bad tuple" question the
// cleaning oracles, experiment E15 and the examples ask. Deletion
// propagation is the inverse problem — these reports are what the
// data-annotation application propagates along.
package lineage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// ErrUnknown is returned when the requested view tuple or column does not
// exist.
var ErrUnknown = errors.New("lineage: unknown view tuple or column")

// Witness is one why-provenance witness: the base tuples of one
// derivation, sorted by key.
type Witness []relation.TupleID

// String renders the witness as {T1(..), T2(..)}.
func (w Witness) String() string {
	parts := make([]string, len(w))
	for i, id := range w {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Why returns the why-provenance of a view tuple: one witness per
// derivation. For key-preserving queries there is exactly one witness.
// Witnesses are ordered element by element by TupleID.CompareKey, a
// witness that is a prefix of another first.
func Why(views []*view.View, ref view.TupleRef) ([]Witness, error) {
	res, a, err := lookup(views, ref)
	if err != nil {
		return nil, err
	}
	lo, hi := res.Derivations(a)
	out := make([]Witness, 0, hi-lo)
	for d := lo; d < hi; d++ {
		var w Witness
		for i := range res.Query.Body {
			if id := res.TupleID(d, i); !slices.ContainsFunc(w, id.Equal) {
				w = append(w, id)
			}
		}
		slices.SortFunc(w, relation.TupleID.CompareKey)
		out = append(out, w)
	}
	slices.SortFunc(out, func(a, b Witness) int { return slices.CompareFunc(a, b, relation.TupleID.CompareKey) })
	return out, nil
}

// Cell identifies one source cell: a base tuple plus an attribute
// position.
type Cell struct {
	Tuple relation.TupleID
	// Position is the attribute index within the tuple.
	Position int
}

// String renders the cell as T1(a,b)[1].
func (c Cell) String() string {
	return fmt.Sprintf("%s[%d]", c.Tuple, c.Position)
}

// Where returns the where-provenance of column col of a view tuple: every
// source cell whose value was copied into that output position, across all
// derivations, each cell once, ordered by TupleID.CompareKey and then
// position. Output positions holding head constants have empty
// where-provenance.
func Where(views []*view.View, ref view.TupleRef, col int) ([]Cell, error) {
	res, a, err := lookup(views, ref)
	if err != nil {
		return nil, err
	}
	q := res.Query
	if col < 0 || col >= len(q.Head) {
		return nil, fmt.Errorf("%w: column %d of %d", ErrUnknown, col, len(q.Head))
	}
	head := q.Head[col]
	if !head.IsVar() {
		return nil, nil
	}
	// A derivation matches one base tuple per body atom; the head
	// variable's occurrences in the atoms give the source positions.
	var out []Cell
	lo, hi := res.Derivations(a)
	for d := lo; d < hi; d++ {
		for i, atom := range q.Body {
			for p, term := range atom.Terms {
				if term.Var == head.Var {
					out = append(out, Cell{Tuple: res.TupleID(d, i), Position: p})
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b Cell) int {
		if c := a.Tuple.CompareKey(b.Tuple); c != 0 {
			return c
		}
		return cmp.Compare(a.Position, b.Position)
	})
	return slices.CompactFunc(out, func(a, b Cell) bool { return a.Position == b.Position && a.Tuple.Equal(b.Tuple) }), nil
}

// Report is a complete lineage report for one view tuple.
type Report struct {
	Ref view.TupleRef
	Why []Witness
	// WhereByColumn holds the where-provenance per output position.
	WhereByColumn [][]Cell
}

// Explain builds the full report.
func Explain(views []*view.View, ref view.TupleRef) (*Report, error) {
	why, err := Why(views, ref)
	if err != nil {
		return nil, err
	}
	q := views[ref.View].Query
	rep := &Report{Ref: ref, Why: why}
	for col := range q.Head {
		cells, err := Where(views, ref, col)
		if err != nil {
			return nil, err
		}
		rep.WhereByColumn = append(rep.WhereByColumn, cells)
	}
	return rep, nil
}

// String renders the report for human consumption.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lineage of %s\n", r.Ref)
	for i, w := range r.Why {
		fmt.Fprintf(&b, "  why[%d]: %s\n", i, w)
	}
	for col, cells := range r.WhereByColumn {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c.String()
		}
		fmt.Fprintf(&b, "  where[%d]: %s\n", col, strings.Join(parts, ", "))
	}
	return b.String()
}

// Touched is the forward direction of provenance over an index the
// caller holds: touched[r] reports whether some derivation of view tuple
// r (a ref id of x) uses one of the given base tuples, that is, whether
// deleting them would cost r a witness. Tuples that occur in no
// derivation touch nothing.
func Touched(x *view.Index, ids ...relation.TupleID) []bool {
	touched := make([]bool, x.NumRefs())
	var occ []view.Occurrence
	for _, id := range ids {
		if t, ok := x.LookupTuple(id); ok {
			occ = x.AppendOccurrences(occ[:0], t)
			for _, o := range occ {
				touched[o.Ref] = true
			}
		}
	}
	return touched
}

// AffectedBy returns the view tuples the given base tuples touch, sorted
// by TupleRef.Key — what the annotation application pushes source
// annotations to.
func AffectedBy(x *view.Index, ids ...relation.TupleID) []view.TupleRef {
	var refs []int32
	for r, hit := range Touched(x, ids...) {
		if hit {
			refs = append(refs, int32(r))
		}
	}
	slices.SortFunc(refs, func(a, b int32) int { return cmp.Compare(x.RefRank(a), x.RefRank(b)) })
	out := make([]view.TupleRef, len(refs))
	for i, r := range refs {
		out[i] = x.Ref(r)
	}
	return out
}

// lookup returns the Result holding a view tuple and its answer position.
func lookup(views []*view.View, ref view.TupleRef) (*cq.Result, int, error) {
	if ref.View < 0 || ref.View >= len(views) {
		return nil, 0, fmt.Errorf("%w: view %d", ErrUnknown, ref.View)
	}
	res := views[ref.View].Result
	a, ok := res.Position(ref.Tuple)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknown, ref)
	}
	return res, a, nil
}
