// Package setcover implements the covering problems the paper builds on
// (Section II.D): the Red-Blue Set Cover problem of Carr et al. with a
// greedy and a Peleg-style low-degree approximation plus an exact
// branch-and-bound, and the Positive-Negative Partial Set Cover problem of
// Miettinen, read over the same Instance, with its linear reduction to
// Red-Blue Set Cover. These are the engines behind the paper's Claim 1
// and Lemma 1 upper bounds.
package setcover

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Set is one set of a Red-Blue Set Cover instance: the red and blue
// elements it contains, as indexes into the instance's element ranges.
type Set struct {
	Reds  []int
	Blues []int
}

// Instance is a Red-Blue Set Cover instance: find a sub-collection covering
// every blue element while minimizing the total weight of covered red
// elements.
type Instance struct {
	NumRed  int
	NumBlue int
	// RedWeights holds one weight per red element; nil means all 1.
	RedWeights []float64
	Sets       []Set
}

// Validate checks index ranges and weight vector length.
func (inst *Instance) Validate() error {
	if inst.RedWeights != nil && len(inst.RedWeights) != inst.NumRed {
		return fmt.Errorf("setcover: %d red weights for %d reds", len(inst.RedWeights), inst.NumRed)
	}
	for si, s := range inst.Sets {
		for _, r := range s.Reds {
			if r < 0 || r >= inst.NumRed {
				return fmt.Errorf("setcover: set %d red index %d out of range", si, r)
			}
		}
		for _, b := range s.Blues {
			if b < 0 || b >= inst.NumBlue {
				return fmt.Errorf("setcover: set %d blue index %d out of range", si, b)
			}
		}
	}
	return nil
}

// RedWeight returns the weight of red element r.
func (inst *Instance) RedWeight(r int) float64 {
	if inst.RedWeights == nil {
		return 1
	}
	return inst.RedWeights[r]
}

// Solution is a chosen sub-collection, as set indexes.
type Solution struct {
	Chosen []int
}

// CoveredBlues returns the number of blue elements covered by the
// solution.
func (inst *Instance) CoveredBlues(sol Solution) int {
	n := 0
	for _, in := range covered(inst.NumBlue, sol, func(si int) []int { return inst.Sets[si].Blues }) {
		if in {
			n++
		}
	}
	return n
}

// covered returns the mask of elements of [0, n) that some chosen set's
// elems contain. Costs sum over it in ascending element order, so a
// float sum's last bits do not depend on the order sets were chosen in.
func covered(n int, sol Solution, elems func(si int) []int) []bool {
	mask := make([]bool, n)
	for _, si := range sol.Chosen {
		for _, e := range elems(si) {
			mask[e] = true
		}
	}
	return mask
}

// Feasible reports whether every blue element is covered.
func (inst *Instance) Feasible(sol Solution) bool {
	return inst.CoveredBlues(sol) == inst.NumBlue
}

// Cost returns the total weight of red elements covered by the solution
// (the Red-Blue Set Cover objective).
func (inst *Instance) Cost(sol Solution) float64 { return inst.addRedCost(0, sol) }

// addRedCost adds to cost the weights of the red elements the solution
// covers, in ascending element order.
func (inst *Instance) addRedCost(cost float64, sol Solution) float64 {
	for r, in := range covered(inst.NumRed, sol, func(si int) []int { return inst.Sets[si].Reds }) {
		if in {
			cost += inst.RedWeight(r)
		}
	}
	return cost
}

// ErrInfeasible is returned when some blue element is covered by no set.
var ErrInfeasible = errors.New("setcover: instance is infeasible")

// coveringSets returns, per blue element, the sets covering it (restricted
// to allowed sets).
func (inst *Instance) coveringSets(allowed []bool) ([][]int, error) {
	cov := make([][]int, inst.NumBlue)
	for si, s := range inst.Sets {
		if allowed != nil && !allowed[si] {
			continue
		}
		for _, b := range s.Blues {
			cov[b] = append(cov[b], si)
		}
	}
	for b, cs := range cov {
		if len(cs) == 0 {
			return nil, fmt.Errorf("%w: blue element %d uncovered by every set", ErrInfeasible, b)
		}
	}
	return cov, nil
}

// greedyRestricted covers the blues with the allowed sets (every set when
// allowed is nil), repeatedly picking the set maximizing newly-covered
// blues per unit of newly-covered red weight.
func (inst *Instance) greedyRestricted(allowed []bool) (Solution, error) {
	if _, err := inst.coveringSets(allowed); err != nil {
		return Solution{}, err
	}
	coveredBlue := make([]bool, inst.NumBlue)
	coveredRed := make([]bool, inst.NumRed)
	remaining := inst.NumBlue
	var chosen []int
	for remaining > 0 {
		best, bestScore := -1, math.Inf(-1)
		for si, s := range inst.Sets {
			if allowed != nil && !allowed[si] {
				continue
			}
			newBlues := 0
			for _, b := range s.Blues {
				if !coveredBlue[b] {
					newBlues++
				}
			}
			if newBlues == 0 {
				continue
			}
			newRed := 0.0
			for _, r := range s.Reds {
				if !coveredRed[r] {
					newRed += inst.RedWeight(r)
				}
			}
			score := float64(newBlues) / (1 + newRed)
			if score > bestScore {
				bestScore, best = score, si
			}
		}
		if best == -1 {
			// coveringSets guaranteed feasibility; reaching here would be a
			// logic bug.
			return Solution{}, ErrInfeasible
		}
		chosen = append(chosen, best)
		for _, b := range inst.Sets[best].Blues {
			if !coveredBlue[b] {
				coveredBlue[b] = true
				remaining--
			}
		}
		for _, r := range inst.Sets[best].Reds {
			coveredRed[r] = true
		}
	}
	sort.Ints(chosen)
	return Solution{Chosen: chosen}, nil
}

// redDegree returns the red weight of a set (number of reds when
// unweighted).
func (inst *Instance) redDegree(si int) float64 {
	w := 0.0
	for _, r := range inst.Sets[si].Reds {
		w += inst.RedWeight(r)
	}
	return w
}

// LowDeg runs the degree-capped greedy: sets with red weight exceeding tau
// are discarded, then the ratio greedy covers the blues. Returns
// ErrInfeasible when the cap kills feasibility. This is the inner routine
// of the paper's Algorithm 2 family, after Peleg's LowDegTwo.
func (inst *Instance) LowDeg(tau float64) (Solution, error) {
	allowed := make([]bool, len(inst.Sets))
	for si := range inst.Sets {
		allowed[si] = inst.redDegree(si) <= tau
	}
	return inst.greedyRestricted(allowed)
}

// LowDegSweep runs LowDeg over every distinct red degree (the unknown τ̂ of
// the paper's Algorithm 3 outer loop) and returns the best feasible
// solution found, or ErrInfeasible if none is.
func (inst *Instance) LowDegSweep() (Solution, error) {
	degrees := make([]float64, 0, len(inst.Sets))
	seen := make(map[float64]bool)
	for si := range inst.Sets {
		d := inst.redDegree(si)
		if !seen[d] {
			seen[d] = true
			degrees = append(degrees, d)
		}
	}
	sort.Float64s(degrees)
	bestCost := math.Inf(1)
	var best Solution
	found := false
	for _, tau := range degrees {
		sol, err := inst.LowDeg(tau)
		if err != nil {
			continue
		}
		if c := inst.Cost(sol); c < bestCost {
			bestCost, best, found = c, sol, true
		}
	}
	if !found {
		return Solution{}, ErrInfeasible
	}
	return best, nil
}

// SearchRecorder receives branch-and-bound progress events from the
// exact solvers. Implementations must be safe for concurrent use; a nil
// recorder disables reporting. core.Stats satisfies it, which is how the
// telemetry layer sees inside the search without this package depending
// on core.
type SearchRecorder interface {
	// AddNodes reports n expanded search nodes (batched).
	AddNodes(n int64)
	// AddPruned reports n branches cut by the cost bound (batched).
	AddPruned(n int64)
	// Incumbent reports an improved best-so-far cover.
	Incumbent(cost float64, size int)
}

// Exact computes an optimal solution by branch and bound, branching on
// the uncovered blue with the fewest covering sets and trying those sets
// in ascending index order. It polls ctx between subtrees and, when it is
// done, returns the best solution found so far together with the
// context's error — so callers can keep the incumbent as an anytime result
// (a zero-set Solution with the context error means the search was
// stopped before any cover was found). Progress goes to rec (nil disables
// reporting; node and prune counts are flushed in batches so the hot
// recursion stays free of per-node interface calls).
func (inst *Instance) Exact(ctx context.Context, rec SearchRecorder) (Solution, error) {
	cov, err := inst.coveringSets(nil)
	if err != nil {
		return Solution{}, err
	}
	bestCost := math.Inf(1)
	var best []int                           // nil until the first cover, which may be empty
	coveredBlue := make([]int, inst.NumBlue) // cover count
	coveredRed := make([]int, inst.NumRed)
	remaining := inst.NumBlue
	curCost := 0.0
	var cur []int

	choose := func(si int) {
		for _, b := range inst.Sets[si].Blues {
			if coveredBlue[b] == 0 {
				remaining--
			}
			coveredBlue[b]++
		}
		for _, r := range inst.Sets[si].Reds {
			if coveredRed[r] == 0 {
				curCost += inst.RedWeight(r)
			}
			coveredRed[r]++
		}
		cur = append(cur, si)
	}
	unchoose := func(si int) {
		for _, b := range inst.Sets[si].Blues {
			coveredBlue[b]--
			if coveredBlue[b] == 0 {
				remaining++
			}
		}
		for _, r := range inst.Sets[si].Reds {
			coveredRed[r]--
			if coveredRed[r] == 0 {
				curCost -= inst.RedWeight(r)
			}
		}
		cur = cur[:len(cur)-1]
	}

	visited, lastFlush := 0, 0
	pruned := int64(0)
	flush := func() {
		if rec == nil {
			return
		}
		rec.AddNodes(int64(visited - lastFlush))
		lastFlush = visited
		if pruned > 0 {
			rec.AddPruned(pruned)
			pruned = 0
		}
	}
	aborted := false
	var walk func()
	walk = func() {
		if aborted {
			return
		}
		visited++
		if visited%1024 == 0 {
			flush()
			select {
			case <-ctx.Done():
				aborted = true
				return
			default:
			}
		}
		if curCost >= bestCost {
			pruned++
			return
		}
		if remaining == 0 {
			bestCost = curCost
			best = append(make([]int, 0, len(cur)), cur...)
			if rec != nil {
				rec.Incumbent(bestCost, len(best))
			}
			return
		}
		// Branch on the uncovered blue with the fewest covering sets.
		pick, pickDeg := -1, math.MaxInt32
		for b := range coveredBlue {
			if coveredBlue[b] == 0 && len(cov[b]) < pickDeg {
				pick, pickDeg = b, len(cov[b])
			}
		}
		for _, si := range cov[pick] {
			choose(si)
			walk()
			unchoose(si)
		}
	}
	walk()
	flush()
	if aborted {
		if best == nil {
			return Solution{}, ctx.Err()
		}
		sort.Ints(best)
		return Solution{Chosen: best}, ctx.Err()
	}
	if best == nil {
		return Solution{}, ErrInfeasible
	}
	sort.Ints(best)
	return Solution{Chosen: best}, nil
}
