package reduction

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"delprop/internal/core"
	"delprop/internal/setcover"
)

func TestFig2Construction(t *testing.T) {
	inst := Fig2()
	v, err := FromRedBlue(inst)
	if err != nil {
		t.Fatal(err)
	}
	p := v.Problem
	// One table with |C| = 3 tuples.
	if p.DB.Size() != 3 {
		t.Errorf("DB size = %d, want 3", p.DB.Size())
	}
	// Four views (r1, b1, b2, b3), each with a single join-path tuple.
	if len(p.Views) != 4 {
		t.Fatalf("views = %d, want 4", len(p.Views))
	}
	for i, vw := range p.Views {
		if vw.Result.NumAnswers() != 1 {
			t.Errorf("view %d answers = %d, want 1", i, vw.Result.NumAnswers())
		}
	}
	// ΔV = the three blue views.
	if p.DeltaLen() != 3 {
		t.Errorf("ΔV = %d, want 3", p.DeltaLen())
	}
	// Queries are project-free and key-preserving.
	if !p.IsKeyPreserving() {
		t.Error("construction not key-preserving")
	}
	for _, q := range p.Queries {
		if !q.IsProjectFree() {
			t.Errorf("query %s not project-free", q.Name)
		}
	}
	// Fig 2 semantics: every solution must delete all three tuples
	// (each blue is in exactly one set), covering r1 -> optimal side
	// effect 1.
	sol, err := (&core.BruteForce{}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Evaluate(sol)
	if !rep.Feasible || rep.SideEffect != 1 || rep.DeletedCount != 3 {
		t.Errorf("Fig2 optimum: %+v", rep)
	}
}

func randRBSC(rng *rand.Rand, nRed, nBlue, nSets int) *setcover.Instance {
	inst := &setcover.Instance{NumRed: nRed, NumBlue: nBlue}
	for i := 0; i < nSets; i++ {
		var s setcover.Set
		for r := 0; r < nRed; r++ {
			if rng.Intn(3) == 0 {
				s.Reds = append(s.Reds, r)
			}
		}
		for b := 0; b < nBlue; b++ {
			if rng.Intn(3) == 0 {
				s.Blues = append(s.Blues, b)
			}
		}
		inst.Sets = append(inst.Sets, s)
	}
	for b := 0; b < nBlue; b++ {
		inst.Sets[b%nSets].Blues = append(inst.Sets[b%nSets].Blues, b)
	}
	for r := 0; r < nRed; r++ {
		inst.Sets[r%nSets].Reds = append(inst.Sets[r%nSets].Reds, r)
	}
	// Dedupe element lists.
	for i := range inst.Sets {
		inst.Sets[i].Reds = dedupe(inst.Sets[i].Reds)
		inst.Sets[i].Blues = dedupe(inst.Sets[i].Blues)
	}
	return inst
}

func dedupe(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// TestTheorem1CostPreservation is the machine-checked core of Theorem 1:
// on random Red-Blue instances, (a) every cover maps to a deletion with
// side-effect equal to the cover's cost, (b) every feasible deletion maps
// back to a cover of equal cost, and (c) the optima coincide.
func TestTheorem1CostPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		inst := randRBSC(rng, 4, 4, 5)
		v, err := FromRedBlue(inst)
		if err != nil {
			t.Fatal(err)
		}
		p := v.Problem
		// (a) forward mapping preserves cost, over all feasible covers.
		for mask := 0; mask < 1<<len(inst.Sets); mask++ {
			var chosen []int
			for i := range inst.Sets {
				if mask&(1<<i) != 0 {
					chosen = append(chosen, i)
				}
			}
			cover := setcover.Solution{Chosen: chosen}
			del := v.CoverToDeletion(cover)
			rep := p.Evaluate(del)
			if inst.Feasible(cover) != rep.Feasible {
				t.Fatalf("trial %d mask %d: feasibility mismatch (cover %v, deletion %v)", trial, mask, inst.Feasible(cover), rep.Feasible)
			}
			if inst.Feasible(cover) {
				if math.Abs(inst.Cost(cover)-rep.SideEffect) > 1e-9 {
					t.Fatalf("trial %d mask %d: cover cost %v != side effect %v", trial, mask, inst.Cost(cover), rep.SideEffect)
				}
			}
		}
		// (b)+(c): optima coincide.
		rbOpt, err := inst.Exact(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		vseOpt, err := (&core.RedBlueExact{}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Evaluate(vseOpt).SideEffect, inst.Cost(rbOpt); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: VSE optimum %v != RBSC optimum %v", trial, got, want)
		}
		// Round trip.
		back := v.DeletionToCover(v.CoverToDeletion(rbOpt))
		if math.Abs(inst.Cost(back)-inst.Cost(rbOpt)) > 1e-9 {
			t.Fatalf("trial %d: round-trip cost changed", trial)
		}
	}
}

// TestTheorem1WeightedCostPreservation: red weights carry over.
func TestTheorem1WeightedCostPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := randRBSC(rng, 3, 3, 4)
	inst.RedWeights = []float64{2, 5, 0.5}
	v, err := FromRedBlue(inst)
	if err != nil {
		t.Fatal(err)
	}
	rbOpt, err := inst.Exact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	vseOpt, err := (&core.RedBlueExact{}).Solve(context.Background(), v.Problem)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.Problem.Evaluate(vseOpt).SideEffect, inst.Cost(rbOpt); math.Abs(got-want) > 1e-9 {
		t.Fatalf("weighted optimum %v != %v", got, want)
	}
}

func TestFromRedBlueUncoveredElement(t *testing.T) {
	inst := &setcover.Instance{NumRed: 1, NumBlue: 1, Sets: []setcover.Set{{Blues: []int{0}}}}
	if _, err := FromRedBlue(inst); !errors.Is(err, ErrElementUncovered) {
		t.Errorf("err = %v, want ErrElementUncovered", err)
	}
	bad := &setcover.Instance{NumRed: 1, NumBlue: 1, Sets: []setcover.Set{{Reds: []int{5}}}}
	if _, err := FromRedBlue(bad); err == nil {
		t.Error("invalid instance accepted")
	}
}

// TestTheorem2CostPreservation: the balanced objective of the constructed
// problem equals the PNPSC cost, for every sub-collection, and the optima
// coincide.
func TestTheorem2CostPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		pn := &setcover.PNPSCInstance{Inst: &setcover.Instance{NumBlue: 3, NumRed: 3}}
		for i := 0; i < 4; i++ {
			var s setcover.Set
			for e := 0; e < 3; e++ {
				if rng.Intn(3) == 0 {
					s.Blues = append(s.Blues, e)
				}
				if rng.Intn(3) == 0 {
					s.Reds = append(s.Reds, e)
				}
			}
			pn.Inst.Sets = append(pn.Inst.Sets, s)
		}
		// Guarantee occurrences so the construction is well-defined.
		for e := 0; e < 3; e++ {
			pn.Inst.Sets[e%4].Blues = dedupe(append(pn.Inst.Sets[e%4].Blues, e))
			pn.Inst.Sets[(e+1)%4].Reds = dedupe(append(pn.Inst.Sets[(e+1)%4].Reds, e))
		}
		bi, err := FromPNPSC(pn)
		if err != nil {
			t.Fatal(err)
		}
		p := bi.Problem
		for mask := 0; mask < 1<<len(pn.Inst.Sets); mask++ {
			var chosen []int
			for i := range pn.Inst.Sets {
				if mask&(1<<i) != 0 {
					chosen = append(chosen, i)
				}
			}
			cover := setcover.Solution{Chosen: chosen}
			rep := p.Evaluate(bi.CoverToDeletion(cover))
			if math.Abs(pn.Cost(cover)-rep.Balanced) > 1e-9 {
				t.Fatalf("trial %d mask %d: PNPSC cost %v != balanced %v", trial, mask, pn.Cost(cover), rep.Balanced)
			}
		}
		// Optima agree.
		pnOpt, err := pn.Exact(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		balOpt, err := (&core.BalancedRedBlue{Exact: true}).Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Evaluate(balOpt).Balanced, pn.Cost(pnOpt); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: balanced optimum %v != PNPSC optimum %v", trial, got, want)
		}
	}
}
