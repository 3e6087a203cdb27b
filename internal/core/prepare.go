package core

import (
	"fmt"
	"sort"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/telemetry"
	"delprop/internal/textio"
	"delprop/internal/view"
)

// Source is one solve's input: the instance text, or a Skeleton already
// built from (D, Q), plus the deletion request and preservation weights.
type Source struct {
	Database, Queries string   // the instance text; unused when Skeleton is set
	Skeleton          *Problem // resolved against by Specialize when set
	Deletions         string   // the deletion request text; may be empty
	Weights           map[string]float64
	// Resident marks a problem that outlives its request, a warm
	// session's skeleton: the parse copies the database out of its text
	// (relation.Instance.Detach), which a problem that dies with the
	// request would pay for nothing.
	Resident bool
}

// Prepare is the front half every solve shares before Run: the parse
// phase (the instance text, or only the deletions against the skeleton),
// then the views phase (NewProblem or Specialize, then the weights).
// phase opens a phase and returns the closure that ends it, as
// RunHooks.Phase does; nil opens none. views opens only after parse
// succeeds.
func Prepare(src Source, phase func(name string) func()) (*Problem, error) {
	if phase == nil {
		phase = func(string) func() { return func() {} }
	}
	end := phase(telemetry.PhaseParse)
	db, queries, delta, err := src.parse()
	end()
	if err != nil {
		return nil, err
	}
	defer phase(telemetry.PhaseViews)()
	var p *Problem
	if src.Skeleton != nil {
		p, err = src.Skeleton.Specialize(delta)
	} else {
		p, err = NewProblem(db, queries, delta)
	}
	if err == nil {
		err = applyWeights(p, src.Weights)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// parse is Prepare's parse phase.
func (src Source) parse() (db *relation.Instance, queries []*cq.Query, delta *view.Deletion, err error) {
	if src.Skeleton != nil {
		queries = src.Skeleton.Queries
	} else if db, queries, err = textio.ParseInstance(src.Database, src.Queries); err != nil {
		return nil, nil, nil, err
	} else if src.Resident {
		db.Detach()
	}
	if src.Deletions != "" {
		if delta, err = textio.ParseDeletions(src.Deletions, queries); err != nil {
			return nil, nil, nil, fmt.Errorf("deletions: %w", err)
		}
	}
	return db, queries, delta, nil
}

// applyWeights sets the preservation weights named by "Qname(v1,...)"
// specs on p. Specs are parsed in sorted order, and two specs naming one
// view tuple must agree on its weight: the parser trims arguments, so
// "Q(a, b)" and "Q(a,b)" are the same tuple, and a conflict resolved by
// map order would make the same request answer differently. Weights must
// be non-negative: a negative one rewards destroying the tuple, so the
// side effect could fall below the dual lower bound.
func applyWeights(p *Problem, weights map[string]float64) error {
	specs := make([]string, 0, len(weights))
	for spec := range weights {
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	seen := make(map[string]string, len(specs))
	for _, spec := range specs {
		if weights[spec] < 0 {
			return fmt.Errorf("weights: %q has negative weight %v", spec, weights[spec])
		}
		del, err := textio.ParseDeletions(spec, p.Queries)
		if err != nil {
			return fmt.Errorf("weights: %w", err)
		}
		for _, ref := range del.Refs() {
			if prev, ok := seen[ref.Key()]; ok && weights[prev] != weights[spec] {
				return fmt.Errorf("weights: %q and %q name the same tuple with different weights (%v, %v)",
					prev, spec, weights[prev], weights[spec])
			}
			seen[ref.Key()] = spec
			p.SetWeight(ref, weights[spec])
		}
	}
	return nil
}
