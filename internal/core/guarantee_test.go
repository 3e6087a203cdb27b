package core

import (
	"math"
	"testing"

	"delprop/internal/textio"
)

// TestGuaranteeClosedForms pins the four approximation bounds on one star
// and one chain instance, both key-preserving forests, against the
// closed forms evaluated at the instances' l, ‖V‖ and ‖ΔV‖, bit for bit.
func TestGuaranteeClosedForms(t *testing.T) {
	for _, tc := range []struct {
		name     string
		p        *Problem
		l, V, dV int
		claim1   float64 // 2√(l·‖V‖·log‖ΔV‖)
		lemma1   float64 // 2√(l·(‖V‖+‖ΔV‖)·log‖ΔV‖)
		thm3     float64 // l
		thm4     float64 // 2√‖V‖
	}{
		{
			name: "star", p: starProblem(t, 1, 3), l: 3, V: 24, dV: 3,
			claim1: 2 * math.Sqrt(3*24*math.Log(3+1)),
			lemma1: 2 * math.Sqrt(3*(24+3)*math.Log(3+1)),
			thm3:   3,
			thm4:   2 * math.Sqrt(24),
		},
		{
			name: "chain", p: chainProblem(t, 1, 3), l: 3, V: 25, dV: 3,
			claim1: 2 * math.Sqrt(3*25*math.Log(3+1)),
			lemma1: 2 * math.Sqrt(3*(25+3)*math.Log(3+1)),
			thm3:   3,
			thm4:   2 * math.Sqrt(25),
		},
	} {
		p := tc.p
		if p.MaxArity() != tc.l || p.TotalViewSize() != tc.V || p.DeltaLen() != tc.dV {
			t.Fatalf("%s: l=%d ‖V‖=%d ‖ΔV‖=%d, want %d %d %d", tc.name,
				p.MaxArity(), p.TotalViewSize(), p.DeltaLen(), tc.l, tc.V, tc.dV)
		}
		for _, c := range []struct {
			s    Solver
			want float64
		}{
			{&RedBlue{}, tc.claim1},
			{&BalancedRedBlue{}, tc.lemma1},
			{&PrimalDual{}, tc.thm3},
			{&LowDegTreeTwo{}, tc.thm4},
		} {
			if got := Guarantee(c.s, p); math.Float64bits(got) != math.Float64bits(c.want) {
				t.Errorf("%s: Guarantee(%s) = %v, want %v", tc.name, c.s.Name(), got, c.want)
			}
		}
	}
}

// TestGuaranteeNeedsForest: on key-preserving queries whose hypergraph is
// a cycle (R–S, S–T, T–R), Theorems 3 and 4 do not apply, while Claim 1
// still does.
func TestGuaranteeNeedsForest(t *testing.T) {
	db, queries, err := textio.ParseInstance(
		"relation R(A*, B)\nrelation S(A*, B)\nrelation T(A*, B)\nR(a, 1)\nS(a, 1)\nT(a, 1)\n",
		"Q1(x) :- R(x, y), S(x, z)\nQ2(x) :- S(x, y), T(x, z)\nQ3(x) :- T(x, y), R(x, z)\n")
	if err != nil {
		t.Fatal(err)
	}
	del, err := textio.ParseDeletions("Q1(a)", queries)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(db, queries, del)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsKeyPreserving() {
		t.Fatal("triangle queries should be key-preserving")
	}
	for _, s := range []Solver{&PrimalDual{}, &LowDegTreeTwo{}} {
		if got := Guarantee(s, p); got != 0 {
			t.Errorf("Guarantee(%s) on a cyclic query hypergraph = %v, want 0", s.Name(), got)
		}
	}
	if got := Guarantee(&RedBlue{}, p); got <= 0 {
		t.Errorf("Guarantee(red-blue) on a key-preserving instance = %v, want > 0", got)
	}
}

// TestGuaranteeNeedsKeyPreserving: Fig 1's Q3 projects away a key, so no
// approximation bound of the paper applies.
func TestGuaranteeNeedsKeyPreserving(t *testing.T) {
	p := fig1Q3Problem(t)
	for _, s := range []Solver{&RedBlue{}, &BalancedRedBlue{}, &PrimalDual{}, &LowDegTreeTwo{}} {
		if got := Guarantee(s, p); got != 0 {
			t.Errorf("Guarantee(%s) on a non-key-preserving instance = %v, want 0", s.Name(), got)
		}
	}
}

// TestGuaranteeByRegisteredName: every exact solver in the registry
// promises ratio 1, and the heuristics promise nothing.
func TestGuaranteeByRegisteredName(t *testing.T) {
	p := starProblem(t, 1, 3)
	for name, want := range map[string]float64{
		"brute-force":        1,
		"red-blue-exact":     1,
		"balanced-exact":     1,
		"dp-tree":            1,
		"single-exact":       1,
		"unidimensional":     1,
		"greedy":             0,
		"greedy-parallel":    0,
		"local-search":       0,
		"portfolio":          0,
		"portfolio-parallel": 0,
	} {
		s, err := NewSolver(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := Guarantee(s, p); got != want {
			t.Errorf("Guarantee(%s) = %v, want %v", name, got, want)
		}
	}
}
