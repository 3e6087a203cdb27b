// Package view implements materialized views with provenance for the
// multi-query deletion-propagation problem (Section II.C of the paper): the
// set V = {V1..Vm} with Vi = Qi(D), deletion requests ΔV, the semantics of
// which view tuples survive a source deletion ΔD (Survives), and the dense
// provenance Index behind the paper's key-preserving observation
// ("finding the occurrences of key values of the deleted relation tuples
// in the view").
//
// The Index interns every base tuple that occurs in a derivation (by
// relation row, numbered in key order) and every view tuple to dense
// int32 ids, and stores each derivation's tuples and each base tuple's
// derivations as flat offset and id arrays. It keeps no copy of the
// views' derivations, answer tuples or keys: a tuple id maps back to a
// row of a relation snapshot the views' Results hold, and a ref id to its
// view and answer. It is immutable once built, so one Index serves every
// request on the same (D, Q); a Maintainer is three counter slices over
// it, which makes NewMaintainer and Clone a few allocations and copies.
// String keys (TupleID.Key, TupleRef.Key) appear only where callers cross
// into or out of ids.
package view

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"delprop/internal/cq"
	"delprop/internal/relation"
)

// View is one materialized query result with provenance.
type View struct {
	Index  int // position within the multi-view problem
	Query  *cq.Query
	Result *cq.Result
}

// Materialize evaluates every query over the instance, producing the view
// set V. Queries are validated; the first failure aborts.
func Materialize(queries []*cq.Query, db *relation.Instance) ([]*View, error) {
	out := make([]*View, len(queries))
	for i, q := range queries {
		res, err := cq.Evaluate(q, db)
		if err != nil {
			return nil, fmt.Errorf("view %d (%s): %w", i, q.Name, err)
		}
		out[i] = &View{Index: i, Query: q, Result: res}
	}
	return out, nil
}

// TupleRef identifies one view tuple within the multi-view problem.
type TupleRef struct {
	View  int
	Tuple relation.Tuple
}

// Key returns a canonical map key for the reference: the view index in
// decimal, a "|" and the tuple's Encode form.
func (r TupleRef) Key() string {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(r.View), 10)
	b = append(b, '|')
	return string(r.Tuple.AppendEncode(b))
}

// String renders the reference as V2(a,b).
func (r TupleRef) String() string {
	var buf [64]byte
	b := strconv.AppendInt(append(buf[:0], 'V'), int64(r.View), 10)
	return string(r.Tuple.AppendString(b))
}

// Deletion is the request ΔV: for each view, the set of view tuples to
// eliminate.
type Deletion struct {
	refs []TupleRef      // in insertion order
	keys map[string]bool // TupleRef.Key of each ref
}

// NewDeletion builds a deletion request from references. Duplicates are
// collapsed.
func NewDeletion(refs ...TupleRef) *Deletion {
	d := &Deletion{keys: make(map[string]bool)}
	for _, r := range refs {
		d.Add(r)
	}
	return d
}

// Add inserts one reference.
func (d *Deletion) Add(r TupleRef) {
	if k := r.Key(); !d.keys[k] {
		d.keys[k] = true
		d.refs = append(d.refs, r)
	}
}

// Contains reports whether the reference is requested for deletion.
func (d *Deletion) Contains(r TupleRef) bool { return d.keys[r.Key()] }

// Len returns ‖ΔV‖, the total number of view tuples requested.
func (d *Deletion) Len() int { return len(d.refs) }

// Refs returns the references in insertion order, in a fresh slice.
func (d *Deletion) Refs() []TupleRef { return slices.Clone(d.refs) }

// PerView splits the deletion by view index.
func (d *Deletion) PerView() map[int][]TupleRef {
	out := make(map[int][]TupleRef)
	for _, r := range d.refs {
		out[r.View] = append(out[r.View], r)
	}
	return out
}

// String renders the request sorted, for debugging.
func (d *Deletion) String() string {
	parts := make([]string, 0, len(d.refs))
	for _, r := range d.refs {
		parts = append(parts, r.String())
	}
	sort.Strings(parts)
	return "ΔV{" + strings.Join(parts, ", ") + "}"
}

// ErrUnknownViewTuple is returned when a deletion request names a tuple not
// present in its view.
var ErrUnknownViewTuple = errors.New("view: deletion names unknown view tuple")

// TotalSize returns ‖V‖: the total number of view tuples across all views.
func TotalSize(views []*View) int {
	n := 0
	for _, v := range views {
		n += v.Result.NumAnswers()
	}
	return n
}

// MaxArity returns l = max arity(Q) over the views' queries; 0 for an empty
// set.
func MaxArity(views []*View) int {
	l := 0
	for _, v := range views {
		if a := v.Query.Arity(); a > l {
			l = a
		}
	}
	return l
}

// Survives reports whether the answer still holds once the tuples in
// deleted (keyed by TupleID.Key) are removed from the source: at least one
// derivation must avoid every deleted tuple. For key-preserving queries
// there is exactly one derivation, so this degenerates to "no tuple of the
// join path is deleted". This is the definition; Index.Killed computes
// the same verdicts from the deleted tuples outward.
func Survives(ans cq.Answer, deleted map[string]bool) bool {
	for _, d := range ans.Derivations() {
		hit := false
		for _, id := range d {
			if deleted[id.Key()] {
				hit = true
				break
			}
		}
		if !hit {
			return true
		}
	}
	return false
}

// DeletedSet builds the lookup set used by Survives.
func DeletedSet(ids []relation.TupleID) map[string]bool {
	out := make(map[string]bool, len(ids))
	for _, id := range ids {
		out[id.Key()] = true
	}
	return out
}
