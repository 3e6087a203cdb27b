package setcover

import (
	"context"
	"fmt"
)

// PNSet is one set of a Positive-Negative Partial Set Cover instance.
type PNSet struct {
	Name      string
	Positives []int
	Negatives []int
}

// PNPSCInstance is the Positive-Negative Partial Set Cover problem of
// Miettinen (Section II.D): choose a sub-collection minimizing
// (#uncovered positives) + (weight of covered negatives): each uncovered
// positive costs 1, as in the paper's Lemma 1. Unlike Red-Blue Set Cover
// there is no hard covering constraint, so every sub-collection
// (including the empty one) is feasible.
type PNPSCInstance struct {
	NumPos int
	NumNeg int
	// NegWeights holds one weight per negative element; nil means all 1.
	NegWeights []float64
	Sets       []PNSet
}

// NegWeight returns the weight of negative element n.
func (p *PNPSCInstance) NegWeight(n int) float64 {
	if p.NegWeights == nil {
		return 1
	}
	return p.NegWeights[n]
}

// Validate checks index ranges and the weight vector length.
func (p *PNPSCInstance) Validate() error {
	if p.NegWeights != nil && len(p.NegWeights) != p.NumNeg {
		return fmt.Errorf("setcover: %d negative weights for %d negatives", len(p.NegWeights), p.NumNeg)
	}
	for si, s := range p.Sets {
		for _, e := range s.Positives {
			if e < 0 || e >= p.NumPos {
				return fmt.Errorf("setcover: set %d positive index %d out of range", si, e)
			}
		}
		for _, e := range s.Negatives {
			if e < 0 || e >= p.NumNeg {
				return fmt.Errorf("setcover: set %d negative index %d out of range", si, e)
			}
		}
	}
	return nil
}

// Cost evaluates the PNPSC objective for a chosen sub-collection.
func (p *PNPSCInstance) Cost(sol Solution) float64 {
	cost := 0.0
	for _, in := range covered(p.NumPos, sol, func(si int) []int { return p.Sets[si].Positives }) {
		if !in {
			cost++
		}
	}
	for n, in := range covered(p.NumNeg, sol, func(si int) []int { return p.Sets[si].Negatives }) {
		if in {
			cost += p.NegWeight(n)
		}
	}
	return cost
}

// ToRedBlue performs Miettinen's linear reduction to Red-Blue Set Cover:
// the positives become blue elements; the reds are the negatives plus one
// fresh "slack" red per positive, and for every positive p a singleton set
// {p, slack_p} is added so that leaving p uncovered in PNPSC corresponds to
// covering it with its slack set at the price of 1. The returned decoder
// strips the slack sets from a Red-Blue solution.
func (p *PNPSCInstance) ToRedBlue() (*Instance, func(Solution) Solution) {
	inst := &Instance{
		NumRed:  p.NumNeg + p.NumPos,
		NumBlue: p.NumPos,
	}
	inst.RedWeights = make([]float64, inst.NumRed)
	for n := range inst.RedWeights[:p.NumNeg] {
		inst.RedWeights[n] = p.NegWeight(n)
	}
	for i := range inst.RedWeights[p.NumNeg:] {
		inst.RedWeights[p.NumNeg+i] = 1
	}
	for _, s := range p.Sets {
		inst.Sets = append(inst.Sets, Set{
			Name:  s.Name,
			Reds:  append([]int(nil), s.Negatives...),
			Blues: append([]int(nil), s.Positives...),
		})
	}
	nOrig := len(p.Sets)
	for i := range inst.RedWeights[p.NumNeg:] {
		inst.Sets = append(inst.Sets, Set{
			Name:  fmt.Sprintf("slack_%d", i),
			Reds:  []int{p.NumNeg + i},
			Blues: []int{i},
		})
	}
	decode := func(sol Solution) Solution {
		var chosen []int
		for _, si := range sol.Chosen {
			if si < nOrig {
				chosen = append(chosen, si)
			}
		}
		return Solution{Chosen: chosen}
	}
	return inst, decode
}

// Solve approximates the PNPSC instance via the reduction to Red-Blue Set
// Cover followed by LowDegSweep, as in the paper's Lemma 1.
func (p *PNPSCInstance) Solve() (Solution, error) {
	inst, decode := p.ToRedBlue()
	sol, err := inst.LowDegSweep()
	if err != nil {
		return Solution{}, err
	}
	return decode(sol), nil
}

// Exact computes an optimal PNPSC solution via the reduction and the
// Red-Blue branch-and-bound, with Instance.Exact's cancellation and
// reporting contract: on a done context it returns the incumbent (when one
// exists) together with the context's error.
func (p *PNPSCInstance) Exact(ctx context.Context, rec SearchRecorder) (Solution, error) {
	inst, decode := p.ToRedBlue()
	sol, err := inst.Exact(ctx, rec)
	return decode(sol), err
}
