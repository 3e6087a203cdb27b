package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"delprop/internal/relation"
	"delprop/internal/view"
)

// ExplainSolution renders a human-readable justification of a deletion:
// for every deleted tuple, the requested view tuples it helps eliminate
// and the preserved view tuples it damages — the report a data steward
// reviews before applying the repair.
func ExplainSolution(p *Problem, sol *Solution) string {
	var b strings.Builder
	rep := p.Evaluate(sol)
	fmt.Fprintf(&b, "deletion of %d source tuples: %s\n", len(sol.Deleted), rep)
	rq := &p.rq
	ordered := slices.Clone(sol.Deleted)
	slices.SortFunc(ordered, relation.TupleID.CompareKey)
	var occ []view.Occurrence
	for _, id := range ordered {
		occ = occ[:0]
		if t, ok := rq.x.LookupTuple(id); ok {
			occ = rq.x.AppendOccurrences(occ, t)
		}
		var kills, damages []string
		for _, o := range occ {
			ref := rq.x.Ref(o.Ref)
			if rq.requested(o.Ref) {
				kills = append(kills, ref.String())
			} else if o.Critical {
				damages = append(damages, fmt.Sprintf("%s (w=%v)", ref, rq.weight(o.Ref)))
			} else {
				damages = append(damages, fmt.Sprintf("%s (survivable)", ref))
			}
		}
		sort.Strings(kills)
		sort.Strings(damages)
		fmt.Fprintf(&b, "  delete %s\n", id)
		if len(kills) > 0 {
			fmt.Fprintf(&b, "    eliminates: %s\n", strings.Join(kills, ", "))
		}
		if len(damages) > 0 {
			fmt.Fprintf(&b, "    damages:    %s\n", strings.Join(damages, ", "))
		}
		if len(kills) == 0 && len(damages) == 0 {
			fmt.Fprintf(&b, "    touches no view tuple\n")
		}
	}
	return b.String()
}

// ExplainRequest renders, for one requested view tuple, the deletion
// options and their collateral — the decision surface of the single-tuple
// case.
func ExplainRequest(p *Problem, ref view.TupleRef) (string, error) {
	x := p.Index()
	r, ok := x.LookupRef(ref)
	if !ok {
		return "", fmt.Errorf("core: %s is not a view tuple", ref)
	}
	ans, _ := p.Answer(ref)
	lo, _ := x.Derivations(r)
	var b strings.Builder
	derivs := ans.Derivations()
	fmt.Fprintf(&b, "options for eliminating %s (%d derivation(s)):\n", ref, len(derivs))
	for di, d := range derivs {
		fmt.Fprintf(&b, "  derivation %d: %s\n", di+1, d)
		for _, t := range x.DerivTuples(lo + int32(di)) {
			rep := p.evaluate([]int32{t}, 1)
			fmt.Fprintf(&b, "    delete %s -> side-effect %v\n", x.Tuple(t), rep.SideEffect)
		}
	}
	return b.String(), nil
}
