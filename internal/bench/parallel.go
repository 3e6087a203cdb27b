package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"delprop/internal/benchkit"
	"delprop/internal/core"
)

// E19: the parallel solve engine. Two artifacts in one experiment:
//
//  1. The greedy scaling curve — wall-clock medians of the concurrent
//     candidate-scoring path at 1/2/4 workers on the same instances,
//     with the determinism contract (parallel output byte-identical to
//     serial) gated through quality records so benchdiff fails hard on
//     any divergence. The speedup itself is hardware-bound (a 1-CPU
//     container records a flat curve), so the table reports it without
//     judging it; comparing captures across machines is benchdiff's job.
//  2. The portfolio race — parallel vs sequential portfolio on the same
//     instances, reporting the winner, whether the win was a proven
//     early exit, and how many losers were cancelled. Both modes must
//     agree on the objective: losers are only ever cancelled once a
//     member's solution provably matches the optimum.

// parallelInstance builds one of E19's star instances, sized so a greedy
// solve does enough candidate probing for the scoring path to dominate.
func parallelInstance(seed int64) (*core.Problem, error) {
	return starProblem(seed, 6, 4, 3, 30, 6)
}

const parallelSeeds = 3

// medianMs runs fn reps times and returns the median, in milliseconds,
// of the durations fn reports. fn gets rec on the first repetition and
// nil after, so what it records reads as from a single repetition
// whatever reps is.
func medianMs(reps int, rec *benchkit.Recorder, fn func(rec *benchkit.Recorder) (time.Duration, error)) (float64, error) {
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		d, err := fn(rec)
		rec = nil
		if err != nil {
			return 0, err
		}
		times = append(times, float64(d.Nanoseconds())/1e6)
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}

func runParallelSpeedup(w io.Writer, rec *benchkit.Recorder) error {
	probs := make([]*core.Problem, 0, parallelSeeds)
	for seed := int64(1); seed <= parallelSeeds; seed++ {
		p, err := parallelInstance(seed)
		if err != nil {
			return err
		}
		if p.DeltaLen() == 0 {
			continue
		}
		probs = append(probs, p)
	}

	// Serial reference solutions: the determinism contract is judged
	// against these byte for byte.
	serial := make([]*core.Solution, len(probs))
	for i, p := range probs {
		res, _, err := solve(rec, &core.Greedy{}, p)
		if err != nil {
			return err
		}
		serial[i] = res.Solution
	}

	t := &Table{
		Title: fmt.Sprintf("E19a: greedy concurrent scoring — scaling curve (GOMAXPROCS=%d, NumCPU=%d)",
			runtime.GOMAXPROCS(0), runtime.NumCPU()),
		Headers: []string{"workers", "median ms (all instances)", "speedup vs serial", "byte-identical"},
	}
	var serialMs float64
	for _, workers := range []int{1, 2, 4} {
		g := &core.Greedy{Workers: workers}
		identical := true
		// Each repetition sums the solve phases of all instances.
		ms, err := medianMs(3, rec, func(rec *benchkit.Recorder) (time.Duration, error) {
			var total time.Duration
			for i, p := range probs {
				res, took, err := solve(rec, g, p)
				if err != nil {
					return 0, err
				}
				total += took
				mismatch := 0.0
				if res.Solution.String() != serial[i].String() {
					identical = false
					mismatch = 1
				}
				if workers > 1 {
					// guarantee 1 on a zero lower bound: any mismatch is a
					// violation, and benchdiff fails the capture on it.
					rec.Quality(benchkit.NewQuality(
						fmt.Sprintf("workers=%d instance=%d", workers, i),
						"greedy-parallel", mismatch, 0, 1))
				}
			}
			return total, nil
		})
		if err != nil {
			return err
		}
		if workers == 1 {
			serialMs = ms
		}
		speedup := "n/a"
		if ms > 0 {
			speedup = fmt.Sprintf("%.2fx", serialMs/ms)
		}
		t.Add(fmt.Sprintf("%d", workers), fmt.Sprintf("%.1f", ms), speedup, fmt.Sprintf("%v", identical))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "shape to check: byte-identical must be true in every row — the scoring shards race only on wall-clock, never on the answer. The speedup column is hardware-bound (flat on one core); compare captures across machines with benchdiff rather than gating here.")
	fmt.Fprintln(w)

	// E19b: the portfolio race.
	rt := &Table{
		Title:   "E19b: portfolio race — parallel vs sequential on the same instances",
		Headers: []string{"instance", "objective (seq)", "objective (par)", "winner", "proven", "cancelled losers"},
	}
	for i, p := range probs {
		seq, _, err := solve(rec, &core.Portfolio{}, p)
		if err != nil {
			return err
		}
		par, _, err := solve(rec, &core.Portfolio{Parallel: true}, p)
		if err != nil {
			return err
		}
		seqObj, parObj := seq.Report.SideEffect, par.Report.SideEffect
		// Equality is a hard contract: cancellation only ever fires on a
		// proven-optimal incumbent, so racing cannot change the objective.
		rec.Quality(benchkit.NewQuality(
			fmt.Sprintf("portfolio instance=%d", i), "portfolio-parallel",
			parObj, seqObj, 1))
		rs := par.Race // a portfolio always records its race
		rt.Add(fmt.Sprintf("%d", i),
			fmtF(seqObj), fmtF(parObj),
			rs.Winner, fmt.Sprintf("%v", rs.Proven), fmt.Sprintf("%d", rs.CancelledLosers))
	}
	rt.Fprint(w)
	fmt.Fprintln(w, "shape to check: the two objective columns agree on every instance; a proven row means the dual bound ended the race early and the cancelled-losers count shows the work saved.")
	fmt.Fprintln(w)
	return nil
}
