package setcover

import "context"

// PNPSCInstance is the Positive-Negative Partial Set Cover problem of
// Miettinen (Section II.D): choose a sub-collection minimizing
// (#uncovered positives) + (weight of covered negatives): each uncovered
// positive costs 1, as in the paper's Lemma 1. Unlike Red-Blue Set Cover
// there is no hard covering constraint, so every sub-collection
// (including the empty one) is feasible.
//
// The sets are a Red-Blue instance's, read the Lemma 1 way: its blues
// are the positives and its reds the weighted negatives. That is the
// instance Claim 1 builds, so the balanced solvers read the view
// side-effect encoding without copying it. The instance is a named
// field, not an embedded one, because Instance's own LowDegSweep,
// Feasible and Exact treat the blues as a hard cover.
type PNPSCInstance struct {
	Inst *Instance
}

// Cost evaluates the PNPSC objective for a chosen sub-collection: the
// uncovered positives, then the weights of the covered negatives in
// ascending element order.
func (p *PNPSCInstance) Cost(sol Solution) float64 {
	inst := p.Inst
	return inst.addRedCost(float64(inst.NumBlue-inst.CoveredBlues(sol)), sol)
}

// ToRedBlue performs Miettinen's linear reduction to Red-Blue Set Cover:
// the positives stay the blue elements; the reds are the negatives plus
// one fresh "slack" red per positive, and for every positive p a
// singleton set {p, slack_p} is added so that leaving p uncovered in
// PNPSC corresponds to covering it with its slack set at the price of 1.
// The original sets come first and share their element slices with p,
// which the solvers only read. The returned decoder strips the slack sets
// from a Red-Blue solution.
func (p *PNPSCInstance) ToRedBlue() (*Instance, func(Solution) Solution) {
	src := p.Inst
	nOrig := len(src.Sets)
	inst := &Instance{
		NumRed:  src.NumRed + src.NumBlue,
		NumBlue: src.NumBlue,
		Sets:    append(make([]Set, 0, nOrig+src.NumBlue), src.Sets...),
	}
	if src.RedWeights != nil { // nil keeps meaning every red, slack too, weighs 1
		inst.RedWeights = append(make([]float64, 0, inst.NumRed), src.RedWeights...)
		for range src.NumBlue {
			inst.RedWeights = append(inst.RedWeights, 1)
		}
	}
	blues, reds := make([]int, src.NumBlue), make([]int, src.NumBlue)
	for i := range src.NumBlue {
		blues[i], reds[i] = i, src.NumRed+i
		inst.Sets = append(inst.Sets, Set{Reds: reds[i : i+1 : i+1], Blues: blues[i : i+1 : i+1]})
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
