package core

import (
	"context"
	"fmt"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// renameValue applies a fixed bijective renaming to a constant.
func renameValue(v relation.Value) relation.Value {
	return relation.Value("·" + string(v) + "·")
}

// renameProblem builds an isomorphic copy of a problem under the renaming.
func renameProblem(t *testing.T, p *Problem) *Problem {
	t.Helper()
	db2 := relation.NewInstance()
	for _, name := range p.DB.RelationNames() {
		db2.AddRelation(p.DB.Relation(name).Schema())
		for _, tp := range p.DB.Relation(name).Tuples() {
			nt := make(relation.Tuple, len(tp))
			for i, v := range tp {
				nt[i] = renameValue(v)
			}
			if err := db2.Insert(name, nt); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Queries rename constants in bodies (our workloads have none, but be
	// faithful).
	queries := make([]*cq.Query, len(p.Queries))
	for i, q := range p.Queries {
		c := q.Clone()
		for ai := range c.Body {
			for ti, term := range c.Body[ai].Terms {
				if !term.IsVar() {
					c.Body[ai].Terms[ti] = cq.C(string(renameValue(term.Const)))
				}
			}
		}
		queries[i] = c
	}
	delta := view.NewDeletion()
	for _, ref := range p.DeltaRefs() {
		nt := make(relation.Tuple, len(ref.Tuple))
		for i, v := range ref.Tuple {
			nt[i] = renameValue(v)
		}
		delta.Add(view.TupleRef{View: ref.View, Tuple: nt})
	}
	p2, err := NewProblem(db2, queries, delta)
	if err != nil {
		t.Fatal(err)
	}
	return p2
}

// TestIsomorphismInvariance: bijectively renaming every constant leaves
// optimal costs (view, source, balanced) unchanged — the algorithms must
// depend only on structure, never on the values themselves.
func TestIsomorphismInvariance(t *testing.T) {
	makers := map[string]func(*testing.T, int64, int) *Problem{
		"star":  starProblem,
		"pivot": pivotProblem,
	}
	for name, mk := range makers {
		for seed := int64(1); seed <= 4; seed++ {
			p := mk(t, seed, 3)
			if p.DeltaLen() == 0 {
				continue
			}
			p2 := renameProblem(t, p)
			for _, pair := range []struct {
				label string
				cost  func(*Problem) (float64, error)
			}{
				{"view", func(q *Problem) (float64, error) {
					sol, err := (&RedBlueExact{}).Solve(context.Background(), q)
					if err != nil {
						return 0, err
					}
					return q.Evaluate(sol).SideEffect, nil
				}},
				{"balanced", func(q *Problem) (float64, error) {
					sol, err := (&BalancedRedBlue{Exact: true}).Solve(context.Background(), q)
					if err != nil {
						return 0, err
					}
					return q.Evaluate(sol).Balanced, nil
				}},
				{"source", func(q *Problem) (float64, error) {
					sol, err := (&SourceExact{}).Solve(context.Background(), q)
					if err != nil {
						return 0, err
					}
					c, _ := q.SourceSideEffect(sol)
					return c, nil
				}},
			} {
				a, err := pair.cost(p)
				if err != nil {
					t.Fatalf("%s/%d %s original: %v", name, seed, pair.label, err)
				}
				b, err := pair.cost(p2)
				if err != nil {
					t.Fatalf("%s/%d %s renamed: %v", name, seed, pair.label, err)
				}
				if a != b {
					t.Errorf("%s/%d: %s optimum changed under renaming: %v -> %v", name, seed, pair.label, a, b)
				}
			}
		}
	}
}

// TestSolverDeterminism: every solver returns the identical solution on
// repeated invocations over the same problem.
func TestSolverDeterminism(t *testing.T) {
	solvers := append(append([]Solver{}, ApproxSolvers()...), ExactSolvers()...)
	solvers = append(solvers, &LocalSearch{}, &Portfolio{})
	for seed := int64(1); seed <= 3; seed++ {
		p := chainProblem(t, seed, 3)
		if p.DeltaLen() == 0 {
			continue
		}
		for _, s := range solvers {
			a, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			b, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if a.String() != b.String() {
				t.Errorf("seed %d %s: nondeterministic:\n  %s\n  %s", seed, s.Name(), a, b)
			}
		}
	}
	// The |ΔV| = 1 solvers need a single requested tuple (and the source
	// one a single query); tieProblem makes their pick a tie.
	for _, mk := range []func(*testing.T) *Problem{tieProblem, fig1Q4Problem} {
		p := mk(t)
		for _, s := range []Solver{&SingleTupleExact{}, &SourceSingleQueryExact{}} {
			a, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			b, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if a.String() != b.String() {
				t.Errorf("%s: nondeterministic:\n  %s\n  %s", s.Name(), a, b)
			}
		}
	}
}

// tieProblem is one key-preserving query whose single requested view
// tuple has a two-tuple join path, where deleting either tuple costs the
// same (zero) collateral.
func tieProblem(t *testing.T) *Problem {
	t.Helper()
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0}),
		relation.MustSchema("S", []string{"b", "c"}, []int{0}),
	)
	db.MustInsert("R", "1", "x")
	db.MustInsert("S", "x", "9")
	q := cq.MustParse("Q(a, b, c) :- R(a, b), S(b, c)")
	p, err := NewProblem(db, []*cq.Query{q}, view.NewDeletion(view.TupleRef{View: 0, Tuple: tup("1", "x", "9")}))
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsKeyPreserving() {
		t.Fatal("tie problem should be key-preserving")
	}
	return p
}

// TestSingleTuplePicksAreReproducible: with equal-collateral path tuples,
// the |ΔV| = 1 solvers delete the same tuple and record the same incumbent
// trail on every run, rather than whichever tuple map iteration yields
// first.
func TestSingleTuplePicksAreReproducible(t *testing.T) {
	p := tieProblem(t)
	for _, s := range []Solver{&SingleTupleExact{}, &SourceSingleQueryExact{}} {
		var first string
		var firstUpdates int64
		for i := 0; i < 50; i++ {
			ctx, st := WithStats(context.Background())
			sol, err := s.Solve(ctx, p)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			got, updates := sol.String(), st.Snapshot().IncumbentUpdates
			if i == 0 {
				first, firstUpdates = got, updates
				continue
			}
			if got != first || updates != firstUpdates {
				t.Fatalf("%s run %d: deleted %s with %d incumbent updates, run 0 deleted %s with %d",
					s.Name(), i, got, updates, first, firstUpdates)
			}
		}
	}
}

// TestDPTreeDeterminism covers the pivot solver separately (it needs a
// pivot workload).
func TestDPTreeDeterminism(t *testing.T) {
	p := pivotProblem(t, 2, 3)
	if p.DeltaLen() == 0 {
		t.Skip("empty delta")
	}
	a, err := (&DPTree{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&DPTree{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("DPTree nondeterministic: %s vs %s", a, b)
	}
}

// ExactSolvers returns the exact reference solvers: full brute force and
// the branch-and-bound over the Claim 1 encoding (key-preserving only).
func ExactSolvers() []Solver {
	return []Solver{
		&BruteForce{},
		&RedBlueExact{},
	}
}
