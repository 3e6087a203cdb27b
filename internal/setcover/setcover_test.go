package setcover

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// small builds a hand-checkable instance:
//
//	reds r0,r1,r2; blues b0,b1,b2
//	S0 = {b0,b1 | r0}     S1 = {b2 | r0,r1}
//	S2 = {b0,b1,b2 | r2}  S3 = {b2 | }
//
// Optimum: {S0,S3} covering all blues at red cost 1 (r0).
func small() *Instance {
	return &Instance{
		NumRed:  3,
		NumBlue: 3,
		Sets: []Set{
			{Name: "S0", Blues: []int{0, 1}, Reds: []int{0}},
			{Name: "S1", Blues: []int{2}, Reds: []int{0, 1}},
			{Name: "S2", Blues: []int{0, 1, 2}, Reds: []int{2}},
			{Name: "S3", Blues: []int{2}},
		},
	}
}

func TestValidate(t *testing.T) {
	inst := small()
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Instance{NumRed: 1, NumBlue: 1, Sets: []Set{{Reds: []int{5}}}}
	if bad.Validate() == nil {
		t.Error("out-of-range red accepted")
	}
	bad2 := &Instance{NumRed: 1, NumBlue: 1, Sets: []Set{{Blues: []int{-1}}}}
	if bad2.Validate() == nil {
		t.Error("out-of-range blue accepted")
	}
	bad3 := &Instance{NumRed: 2, RedWeights: []float64{1}}
	if bad3.Validate() == nil {
		t.Error("weight length mismatch accepted")
	}
}

func TestCostAndFeasible(t *testing.T) {
	inst := small()
	sol := Solution{Chosen: []int{0, 3}}
	if !inst.Feasible(sol) {
		t.Error("optimal solution reported infeasible")
	}
	if got := inst.Cost(sol); got != 1 {
		t.Errorf("Cost = %v, want 1", got)
	}
	if inst.Feasible(Solution{Chosen: []int{0}}) {
		t.Error("partial cover reported feasible")
	}
	// Covering the same red twice counts once.
	sol2 := Solution{Chosen: []int{0, 1, 3}}
	if got := inst.Cost(sol2); got != 2 { // r0 + r1
		t.Errorf("Cost = %v, want 2", got)
	}
}

func TestWeightedCost(t *testing.T) {
	inst := small()
	inst.RedWeights = []float64{10, 1, 0.5}
	if got := inst.Cost(Solution{Chosen: []int{2}}); got != 0.5 {
		t.Errorf("Cost = %v, want 0.5", got)
	}
	if got := inst.Cost(Solution{Chosen: []int{0, 3}}); got != 10 {
		t.Errorf("Cost = %v, want 10", got)
	}
}

func TestExactFindsOptimum(t *testing.T) {
	inst := small()
	sol, err := inst.Exact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Feasible(sol) {
		t.Fatal("exact solution infeasible")
	}
	if got := inst.Cost(sol); got != 1 {
		t.Errorf("exact cost = %v, want 1", got)
	}
	// Weighted: making r0 expensive flips the optimum to S2-based cover.
	inst.RedWeights = []float64{10, 1, 0.5}
	sol, err = inst.Exact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Cost(sol); got != 0.5 {
		t.Errorf("weighted exact cost = %v, want 0.5", got)
	}
}

func TestExactInfeasible(t *testing.T) {
	inst := &Instance{NumRed: 0, NumBlue: 1, Sets: []Set{{Blues: nil}}}
	if _, err := inst.Exact(context.Background(), nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// TestExactNoBlues: with nothing to cover, the empty sub-collection is the
// optimum rather than an infeasibility.
func TestExactNoBlues(t *testing.T) {
	inst := &Instance{NumRed: 1, Sets: []Set{{Reds: []int{0}}}}
	sol, err := inst.Exact(context.Background(), nil)
	if err != nil || len(sol.Chosen) != 0 {
		t.Errorf("Exact = %v, %v; want the empty cover", sol, err)
	}
}

func TestGreedyFeasibleAndReasonable(t *testing.T) {
	inst := small()
	sol, err := inst.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Feasible(sol) {
		t.Error("greedy solution infeasible")
	}
	// Infeasible instance.
	bad := &Instance{NumBlue: 1, Sets: []Set{{}}}
	if _, err := bad.Greedy(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestLowDeg(t *testing.T) {
	inst := small()
	// tau=0: only S3 (no reds) survives; infeasible (b0,b1 uncovered).
	if _, err := inst.LowDeg(0); !errors.Is(err, ErrInfeasible) {
		t.Errorf("tau=0 err = %v, want ErrInfeasible", err)
	}
	// tau=1: S0, S2, S3 survive; solution possible with cost 1.
	sol, err := inst.LowDeg(1)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Feasible(sol) {
		t.Error("tau=1 infeasible solution")
	}
}

func TestLowDegSweep(t *testing.T) {
	inst := small()
	sol, err := inst.LowDegSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Feasible(sol) {
		t.Fatal("sweep solution infeasible")
	}
	if got := inst.Cost(sol); got != 1 {
		t.Errorf("sweep cost = %v, want 1 (optimal here)", got)
	}
	// Entirely infeasible instance propagates the error.
	bad := &Instance{NumBlue: 1, Sets: []Set{{}}}
	if _, err := bad.LowDegSweep(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// randInstance builds a random feasible instance: every blue appears in at
// least one set.
func randInstance(rng *rand.Rand, nRed, nBlue, nSets int) *Instance {
	inst := &Instance{NumRed: nRed, NumBlue: nBlue}
	for i := 0; i < nSets; i++ {
		var s Set
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
	// Guarantee feasibility.
	for b := 0; b < nBlue; b++ {
		inst.Sets[b%nSets].Blues = append(inst.Sets[b%nSets].Blues, b)
	}
	return inst
}

// TestApproxNeverBeatsExact: on random instances, greedy/low-deg solutions
// are feasible and never cost less than the exact optimum (sanity of the
// exact solver) and stay within the proven 2*sqrt(|C| log beta) bound.
func TestApproxNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		inst := randInstance(rng, 6, 6, 6)
		opt, err := inst.Exact(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		optCost := inst.Cost(opt)
		bound := 2 * math.Sqrt(float64(len(inst.Sets))*math.Log(float64(inst.NumBlue)+1))
		sol, err := inst.LowDegSweep()
		if err != nil {
			t.Fatal(err)
		}
		if !inst.Feasible(sol) {
			t.Fatalf("trial %d infeasible", trial)
		}
		c := inst.Cost(sol)
		if c < optCost-1e-9 {
			t.Fatalf("trial %d: approx %v beats exact %v", trial, c, optCost)
		}
		if optCost > 0 && c > bound*optCost+1e-9 {
			t.Errorf("trial %d: ratio %v exceeds bound %v", trial, c/optCost, bound)
		}
	}
}

func TestPNPSCValidateAndCost(t *testing.T) {
	p := &PNPSCInstance{
		NumPos: 2,
		NumNeg: 2,
		Sets: []PNSet{
			{Name: "A", Positives: []int{0}, Negatives: []int{0}},
			{Name: "B", Positives: []int{1}, Negatives: []int{0, 1}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Empty solution: 2 uncovered positives.
	if got := p.Cost(Solution{}); got != 2 {
		t.Errorf("empty cost = %v, want 2", got)
	}
	// {A}: 1 uncovered positive + 1 covered negative = 2.
	if got := p.Cost(Solution{Chosen: []int{0}}); got != 2 {
		t.Errorf("cost(A) = %v, want 2", got)
	}
	// {A,B}: 0 uncovered + 2 covered negatives = 2.
	if got := p.Cost(Solution{Chosen: []int{0, 1}}); got != 2 {
		t.Errorf("cost(A,B) = %v, want 2", got)
	}
	bad := &PNPSCInstance{NumPos: 1, Sets: []PNSet{{Positives: []int{3}}}}
	if bad.Validate() == nil {
		t.Error("bad positive index accepted")
	}
	bad2 := &PNPSCInstance{NumNeg: 1, Sets: []PNSet{{Negatives: []int{-2}}}}
	if bad2.Validate() == nil {
		t.Error("bad negative index accepted")
	}
}

// TestPNPSCReductionPreservesCost is the substance of Miettinen's Theorem
// 1 as used by the paper's Lemma 1: optimal costs agree, and any Red-Blue
// solution decodes to a PNPSC solution of equal or lower cost.
func TestPNPSCReductionPreservesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p := &PNPSCInstance{NumPos: 4, NumNeg: 4}
		for i := 0; i < 5; i++ {
			var s PNSet
			for e := 0; e < 4; e++ {
				if rng.Intn(3) == 0 {
					s.Positives = append(s.Positives, e)
				}
				if rng.Intn(3) == 0 {
					s.Negatives = append(s.Negatives, e)
				}
			}
			p.Sets = append(p.Sets, s)
		}
		inst, decode := p.ToRedBlue()
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
		rbOpt, err := inst.Exact(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pnOpt, err := p.Exact(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := inst.Cost(rbOpt), p.Cost(pnOpt); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: RBSC opt %v != PNPSC opt %v", trial, got, want)
		}
		// Decoded approximate solution costs what the RBSC solution costs
		// or less (slack reds pay exactly for uncovered positives).
		sol, err := inst.LowDegSweep()
		if err != nil {
			t.Fatal(err)
		}
		if p.Cost(decode(sol)) > inst.Cost(sol)+1e-9 {
			t.Fatalf("trial %d: decoded cost %v exceeds RBSC cost %v", trial, p.Cost(decode(sol)), inst.Cost(sol))
		}
	}
}

func TestPNPSCSolve(t *testing.T) {
	p := &PNPSCInstance{
		NumPos: 2,
		NumNeg: 1,
		Sets: []PNSet{
			{Positives: []int{0, 1}},                   // free cover
			{Positives: []int{0}, Negatives: []int{0}}, // costly
		},
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(sol); got != 0 {
		t.Errorf("Solve cost = %v, want 0", got)
	}
}

func TestPNPSCWeights(t *testing.T) {
	p := &PNPSCInstance{
		NumPos:     1,
		NumNeg:     1,
		NegWeights: []float64{2},
		Sets:       []PNSet{{Positives: []int{0}, Negatives: []int{0}}},
	}
	// Covering: cost 2; not covering: cost 1. Optimal = leave uncovered.
	opt, err := p.Exact(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(opt); got != 1 || len(opt.Chosen) != 0 {
		t.Errorf("weighted optimum = %v (%v), want 1 with nothing chosen", got, opt.Chosen)
	}
}

// TestCostSumOrderFixed: costs add weights in ascending element order,
// so repeated calls return one bit pattern. Summing while ranging over a
// map gave 0.1+0.2+0.3 and 0.3+0.1+0.2 (0.6000000000000001 and 0.6) in
// random proportion, and LowDegSweep compares costs with <.
func TestCostSumOrderFixed(t *testing.T) {
	w := []float64{0.1, 0.2, 0.3}
	want := math.Float64bits(w[0] + w[1] + w[2])
	inst := &Instance{NumRed: 3, NumBlue: 1, RedWeights: w,
		Sets: []Set{{Reds: []int{2, 0}, Blues: []int{0}}, {Reds: []int{1, 2}}}}
	pn := &PNPSCInstance{NumPos: 1, NumNeg: 3, NegWeights: w,
		Sets: []PNSet{{Negatives: []int{2, 0}, Positives: []int{0}}, {Negatives: []int{1, 2}}}}
	sol := Solution{Chosen: []int{1, 0}}
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(inst.Cost(sol)); got != want {
			t.Fatalf("call %d: Instance.Cost = %v, want %v", i, math.Float64frombits(got), math.Float64frombits(want))
		}
		if got := math.Float64bits(pn.Cost(sol)); got != want {
			t.Fatalf("call %d: PNPSCInstance.Cost = %v, want %v", i, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}

// Greedy computes a feasible solution with the ratio greedy, or
// ErrInfeasible.
func (inst *Instance) Greedy() (Solution, error) {
	return inst.greedyRestricted(nil)
}
