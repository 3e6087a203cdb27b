package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// headDominatedDB builds a random instance for the head-dominated query
// Q(y) :- R(y, x), S(x, z): y is the only head variable and R covers it,
// so the query is head-dominated but NOT key-preserving (x, z are
// existential key variables).
func headDominatedDB(seed int64) *relation.Instance {
	rng := rand.New(rand.NewSource(seed))
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0, 1}),
		relation.MustSchema("S", []string{"a", "b"}, []int{0, 1}),
	)
	for i := 0; i < 10; i++ {
		_ = db.Insert("R", relation.Tuple{
			relation.Value(string(rune('a' + rng.Intn(3)))),
			relation.Value(string(rune('0' + rng.Intn(4)))),
		})
		_ = db.Insert("S", relation.Tuple{
			relation.Value(string(rune('0' + rng.Intn(4)))),
			relation.Value(string(rune('p' + rng.Intn(3)))),
		})
	}
	return db
}

// TestUnidimensionalMatchesBruteForce is the differential validation of
// the head-domination guarantee: across seeds and every possible
// single-answer deletion, the unidimensional optimum equals the true
// optimum.
func TestUnidimensionalMatchesBruteForce(t *testing.T) {
	q := cq.MustParse("Q(y) :- R(y, x), S(x, z)")
	checked := 0
	for seed := int64(1); seed <= 15; seed++ {
		db := headDominatedDB(seed)
		base, err := NewProblem(db, []*cq.Query{q}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ans := range base.Views[0].Result.Answers() {
			ansTuple := ans.Tuple
			p, err := NewProblem(db, []*cq.Query{q}, view.NewDeletion(
				view.TupleRef{View: 0, Tuple: ansTuple},
			))
			if err != nil {
				t.Fatal(err)
			}
			uni, err := (&Unidimensional{}).Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("seed %d tuple %v: %v", seed, ansTuple, err)
			}
			uniRep := p.Evaluate(uni)
			if !uniRep.Feasible {
				t.Fatalf("seed %d tuple %v: infeasible", seed, ansTuple)
			}
			bf, err := (&BruteForce{}).Solve(context.Background(), p)
			if err != nil {
				if errors.Is(err, ErrTooLarge) {
					continue
				}
				t.Fatal(err)
			}
			if opt := p.Evaluate(bf).SideEffect; uniRep.SideEffect != opt {
				t.Errorf("seed %d tuple %v: unidimensional %v != optimum %v (%s)",
					seed, ansTuple, uniRep.SideEffect, opt, uni)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Errorf("only %d cases checked", checked)
	}
	t.Logf("validated %d head-dominated single-deletion instances", checked)
}

func TestUnidimensionalPreconditions(t *testing.T) {
	// Not head-dominated: the paper's §IV.B example.
	db := headDominatedDB(1)
	bad := cq.MustParse("Q(y1, y2) :- R(y1, x), S(x, y2)")
	p, err := NewProblem(db, []*cq.Query{bad}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Views[0].Result.NumAnswers() == 0 {
		t.Skip("no answers on this seed")
	}
	p = respecialize(t, p, view.NewDeletion(view.TupleRef{View: 0, Tuple: p.Views[0].Result.Tuple(0)}))
	if _, err := (&Unidimensional{}).Solve(context.Background(), p); !errors.Is(err, ErrNotHeadDominated) {
		t.Errorf("err = %v, want ErrNotHeadDominated", err)
	}
	// Multi-tuple deletion rejected.
	good := cq.MustParse("Q(y) :- R(y, x), S(x, z)")
	p2, err := NewProblem(db, []*cq.Query{good}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := view.NewDeletion()
	for _, ans := range p2.Views[0].Result.Answers() {
		all.Add(view.TupleRef{View: 0, Tuple: ans.Tuple})
	}
	p2 = respecialize(t, p2, all)
	if p2.DeltaLen() > 1 {
		if _, err := (&Unidimensional{}).Solve(context.Background(), p2); err == nil {
			t.Error("multi-tuple deletion accepted")
		}
	}
	// Multi-query rejected.
	w := workload.Fig1()
	p3, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Unidimensional{}).Solve(context.Background(), p3); err == nil {
		t.Error("multi-query accepted")
	}
	// Self-join rejected.
	sj := cq.MustParse("Q(y) :- R(y, x), R(x, z)")
	p4, err := NewProblem(db, []*cq.Query{sj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Views[0].Result.NumAnswers() > 0 {
		p4 = respecialize(t, p4, view.NewDeletion(view.TupleRef{View: 0, Tuple: p4.Views[0].Result.Tuple(0)}))
		if _, err := (&Unidimensional{}).Solve(context.Background(), p4); err == nil {
			t.Error("self-join accepted")
		}
	}
}

// TestUnidimensionalOnKeyPreserving: key-preserving single-derivation
// requests degenerate to SingleTupleExact's answer.
func TestUnidimensionalOnKeyPreserving(t *testing.T) {
	p := fig1Q4Problem(t)
	uni, err := (&Unidimensional{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ste, err := (&SingleTupleExact{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Evaluate(uni).SideEffect != p.Evaluate(ste).SideEffect {
		t.Errorf("unidimensional %v != single-exact %v",
			p.Evaluate(uni).SideEffect, p.Evaluate(ste).SideEffect)
	}
}
