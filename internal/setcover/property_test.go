package setcover

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCoverMonotone: adding sets to a solution never uncovers blues and
// never decreases the red cost.
func TestCoverMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randInstance(rng, 5, 5, 6)
		var small, large []int
		for si := range inst.Sets {
			r := rng.Intn(3)
			if r == 0 {
				small = append(small, si)
			}
			if r <= 1 {
				large = append(large, si)
			}
		}
		large = append(large, small...)
		sSmall, sLarge := Solution{Chosen: small}, Solution{Chosen: large}
		if inst.CoveredBlues(sSmall) > inst.CoveredBlues(sLarge) {
			return false
		}
		return inst.Cost(sSmall) <= inst.Cost(sLarge)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestExactIsLowerBound: the exact optimum lower-bounds every feasible
// solution the approximations produce (quick-driven seeds).
func TestExactIsLowerBoundQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randInstance(rng, 4, 4, 5)
		opt, err := inst.Exact(context.Background(), nil)
		if err != nil {
			return true
		}
		sol, err := inst.Greedy()
		if err != nil {
			return false
		}
		return inst.Cost(sol) >= inst.Cost(opt)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPNPSCReductionEquivalenceQuick: the Miettinen reduction preserves
// optima on random instances (quick-driven complement to the seeded test).
func TestPNPSCReductionEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &PNPSCInstance{NumPos: 3, NumNeg: 3}
		for i := 0; i < 4; i++ {
			var s PNSet
			for e := 0; e < 3; e++ {
				if rng.Intn(3) == 0 {
					s.Positives = append(s.Positives, e)
				}
				if rng.Intn(3) == 0 {
					s.Negatives = append(s.Negatives, e)
				}
			}
			p.Sets = append(p.Sets, s)
		}
		inst, _ := p.ToRedBlue()
		rbOpt, err := inst.Exact(context.Background(), nil)
		if err != nil {
			return false // reduction always feasible (slack sets)
		}
		pnOpt, err := p.Exact(context.Background(), nil)
		if err != nil {
			return false
		}
		return inst.Cost(rbOpt) == p.Cost(pnOpt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
