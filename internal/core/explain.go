package core

import (
	"fmt"
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
	var ordered []string
	byKey := make(map[string]int)
	for i, id := range sol.Deleted {
		ordered = append(ordered, id.Key())
		byKey[id.Key()] = i
	}
	sort.Strings(ordered)
	x := p.Index()
	for _, k := range ordered {
		id := sol.Deleted[byKey[k]]
		var kills, damages []string
		for _, occ := range occurrences(x, id) {
			ref := x.Ref(occ.Ref)
			if p.Delta.Contains(ref) {
				kills = append(kills, ref.String())
			} else if occ.Critical {
				damages = append(damages, fmt.Sprintf("%s (w=%v)", ref, p.Weight(ref)))
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
	ans, ok := p.Answer(ref)
	if !ok {
		return "", fmt.Errorf("core: %s is not a view tuple", ref)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "options for eliminating %s (%d derivation(s)):\n", ref, len(ans.Derivations))
	for di, d := range ans.Derivations {
		fmt.Fprintf(&b, "  derivation %d: %s\n", di+1, d)
		set := d.TupleSet()
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			id := set[k]
			rep := p.Evaluate(&Solution{Deleted: []relation.TupleID{id}})
			fmt.Fprintf(&b, "    delete %s -> side-effect %v\n", id, rep.SideEffect)
		}
	}
	return b.String(), nil
}
