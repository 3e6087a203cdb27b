// Package fd implements functional dependencies over relation attributes
// and their attribute-set closure. The paper's complexity tables (Tables II–V)
// include fd-restricted variants (fd-head-domination, fd-induced triads);
// this package supplies the FD reasoning those deciders need.
package fd

import (
	"sort"
	"strings"
)

// FD is a functional dependency LHS → RHS over attribute names. Attribute
// names are global here; callers namespace them per relation (e.g.
// "T1.Journal") when reasoning across a schema.
type FD struct {
	LHS []string
	RHS []string
}

// New builds an FD, deduplicating and sorting both sides.
func New(lhs []string, rhs []string) FD {
	return FD{LHS: normalize(lhs), RHS: normalize(rhs)}
}

func normalize(attrs []string) []string {
	seen := make(map[string]bool, len(attrs))
	out := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the FD as a,b->c.
func (f FD) String() string {
	return strings.Join(f.LHS, ",") + "->" + strings.Join(f.RHS, ",")
}

// Set is a set of functional dependencies.
type Set struct {
	fds []FD
}

// NewSet builds a set from the given FDs.
func NewSet(fds ...FD) *Set {
	s := &Set{}
	for _, f := range fds {
		s.Add(f)
	}
	return s
}

// Add appends an FD.
func (s *Set) Add(f FD) { s.fds = append(s.fds, f) }

// Closure computes the attribute closure attrs+ under the set, using the
// standard fixpoint algorithm.
func (s *Set) Closure(attrs []string) []string {
	closure := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		closure[a] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range s.fds {
			if !containsAll(closure, f.LHS) {
				continue
			}
			for _, a := range f.RHS {
				if !closure[a] {
					closure[a] = true
					changed = true
				}
			}
		}
	}
	out := make([]string, 0, len(closure))
	for a := range closure {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func containsAll(set map[string]bool, attrs []string) bool {
	for _, a := range attrs {
		if !set[a] {
			return false
		}
	}
	return true
}

// String renders the set deterministically.
func (s *Set) String() string {
	parts := make([]string, len(s.fds))
	for i, f := range s.fds {
		parts[i] = f.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, "; ") + "}"
}
