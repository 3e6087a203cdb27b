package fd

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestClosure(t *testing.T) {
	s := NewSet(
		New([]string{"A"}, []string{"B"}),
		New([]string{"B"}, []string{"C"}),
		New([]string{"C", "D"}, []string{"E"}),
	)
	got := s.Closure([]string{"A"})
	want := []string{"A", "B", "C"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Closure(A) = %v, want %v", got, want)
	}
	got = s.Closure([]string{"A", "D"})
	want = []string{"A", "B", "C", "D", "E"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Closure(A,D) = %v, want %v", got, want)
	}
	// Empty set: closure is identity.
	empty := NewSet()
	if got := empty.Closure([]string{"X"}); !reflect.DeepEqual(got, []string{"X"}) {
		t.Errorf("empty Closure = %v", got)
	}
}

func TestImpliesAndDetermines(t *testing.T) {
	s := NewSet(
		New([]string{"A"}, []string{"B"}),
		New([]string{"B"}, []string{"C"}),
	)
	if !s.Implies(New([]string{"A"}, []string{"C"})) {
		t.Error("transitivity not derived")
	}
	if s.Implies(New([]string{"C"}, []string{"A"})) {
		t.Error("reverse implication wrongly derived")
	}
	// Reflexivity.
	if !NewSet().Implies(New([]string{"A", "B"}, []string{"A"})) {
		t.Error("reflexivity missing")
	}
}

func TestIsSuperkeyAndCandidateKeys(t *testing.T) {
	uni := []string{"A", "B", "C", "D"}
	s := NewSet(
		New([]string{"A"}, []string{"B"}),
		New([]string{"B"}, []string{"C"}),
		New([]string{"C"}, []string{"A"}),
	)
	for _, head := range []string{"A", "B", "C"} {
		if !s.IsSuperkey([]string{head, "D"}, uni) {
			t.Errorf("%s,D should be a superkey", head)
		}
	}
	if s.IsSuperkey([]string{"A"}, uni) {
		t.Error("A alone is not a superkey (misses D)")
	}
}

func TestFDNormalization(t *testing.T) {
	f := New([]string{"B", "A", "B"}, []string{"C", "C"})
	if !reflect.DeepEqual(f.LHS, []string{"A", "B"}) || !reflect.DeepEqual(f.RHS, []string{"C"}) {
		t.Errorf("normalization: %v", f)
	}
	if f.String() != "A,B->C" {
		t.Errorf("String = %q", f.String())
	}
}

// Property: closure is monotone, extensive and idempotent.
func TestClosurePropertiesQuick(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E"}
	mkSet := func(seed uint8) *Set {
		s := NewSet()
		for i := 0; i < 3; i++ {
			l := attrs[int(seed+uint8(i))%5]
			r := attrs[int(seed*3+uint8(i)*7)%5]
			s.Add(New([]string{l}, []string{r}))
		}
		return s
	}
	f := func(seed uint8, pick uint8) bool {
		s := mkSet(seed)
		base := []string{attrs[int(pick)%5]}
		cl := s.Closure(base)
		// Extensive.
		found := false
		for _, a := range cl {
			if a == base[0] {
				found = true
			}
		}
		if !found {
			return false
		}
		// Idempotent.
		if !reflect.DeepEqual(s.Closure(cl), cl) {
			return false
		}
		// Monotone: closure of superset contains closure of base.
		super := append([]string{attrs[(int(pick)+1)%5]}, base...)
		clSuper := s.Closure(super)
		m := map[string]bool{}
		for _, a := range clSuper {
			m[a] = true
		}
		for _, a := range cl {
			if !m[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// IsSuperkey reports whether attrs determine all of universe.
func (s *Set) IsSuperkey(attrs, universe []string) bool {
	return s.Implies(New(attrs, universe))
}

// Implies reports whether the set logically implies the given FD
// (f.RHS ⊆ closure(f.LHS)).
func (s *Set) Implies(f FD) bool {
	cl := s.Closure(f.LHS)
	m := make(map[string]bool, len(cl))
	for _, a := range cl {
		m[a] = true
	}
	return containsAll(m, f.RHS)
}
