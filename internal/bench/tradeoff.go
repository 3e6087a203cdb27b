package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"delprop/internal/benchkit"
	"delprop/internal/core"
)

// runTradeoff is experiment E17: the paper's introduction distinguishes
// the view side-effect objective (this paper) from the source side-effect
// objective (Buneman et al. / the QOCO line). This experiment quantifies
// how the two optima diverge on the same instances: the view-optimal
// deletion may delete more source tuples, and the source-optimal deletion
// may destroy more innocent view tuples.
func runTradeoff(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title: "E17 (extension): view-optimal vs source-optimal deletions",
		Headers: []string{
			"workload", "seed", "‖ΔV‖",
			"view-opt side-effect", "view-opt |ΔD|",
			"source-opt side-effect", "source-opt |ΔD|",
		},
	}
	makers := map[string]func(int64) (*core.Problem, error){
		"star": func(seed int64) (*core.Problem, error) {
			return starProblem(seed, 4, 3, 2, 5, 3)
		},
		"chain": func(seed int64) (*core.Problem, error) {
			return chainProblem(seed, 4, 3, 3, 5, 3)
		},
	}
	diverged, total := 0, 0
	for _, name := range []string{"star", "chain"} {
		for seed := int64(1); seed <= 5; seed++ {
			p, err := makers[name](seed)
			if err != nil {
				return err
			}
			if p.DeltaLen() == 0 {
				continue
			}
			viewSol, err := recordedSolve(rec, &core.RedBlueExact{}, p)
			if err != nil {
				return err
			}
			srcSol, err := (&core.SourceExact{}).Solve(context.Background(), p)
			if err != nil {
				if errors.Is(err, core.ErrTooLarge) {
					continue
				}
				return err
			}
			vRep := p.Evaluate(viewSol)
			sRep := p.Evaluate(srcSol)
			t.Add(name, fmt.Sprint(seed), fmt.Sprint(p.DeltaLen()),
				fmt.Sprint(vRep.SideEffect), fmt.Sprint(vRep.DeletedCount),
				fmt.Sprint(sRep.SideEffect), fmt.Sprint(sRep.DeletedCount))
			total++
			if vRep.SideEffect != sRep.SideEffect || vRep.DeletedCount != sRep.DeletedCount {
				diverged++
			}
		}
	}
	t.Fprint(w)
	fmt.Fprintf(w, "objectives diverged on %d/%d instances: minimizing one side-effect does not minimize the other (the paper's introduction distinction).\n\n", diverged, total)
	return nil
}

// runCombined is experiment E18: the paper stresses that its guarantees
// are combined-complexity results — the query is part of the input, so
// solvers must stay well-behaved as queries widen, not just as data grows.
// This sweeps the maximum query width l (atoms per query) at fixed data
// size and reports runtime and measured ratio of the red-blue solver.
func runCombined(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "E18 (extension): combined complexity — solver behaviour vs query width l",
		Headers: []string{"atoms/query", "l (max arity)", "‖V‖ (avg)", "red-blue time (avg)", "mean ratio", "max ratio"},
	}
	for _, atoms := range []int{2, 3, 4, 5} {
		stats := &ratioStats{}
		var sumL, sumV float64
		var sumTime int64
		cnt := 0
		for seed := int64(1); seed <= 8; seed++ {
			p, err := starProblem(seed, 6, 3, atoms, 5, 3)
			if err != nil {
				return err
			}
			if p.DeltaLen() == 0 {
				continue
			}
			t0 := nowNanos()
			approx, err := recordedSolve(rec, &core.RedBlue{}, p)
			if err != nil {
				return err
			}
			sumTime += nowNanos() - t0
			opt, err := recordedSolve(rec, &core.RedBlueExact{}, p)
			if err != nil {
				return err
			}
			a := p.Evaluate(approx).SideEffect
			o := p.Evaluate(opt).SideEffect
			stats.add(a, o)
			l := float64(p.MaxArity())
			V := float64(p.TotalViewSize())
			dV := float64(p.DeltaLen())
			// Star workloads fall under Claim 1, so its bound applies at
			// every width.
			rec.Quality(benchkit.NewQuality(
				fmt.Sprintf("atoms=%d seed=%d", atoms, seed), "red-blue", a, o,
				2*math.Sqrt(l*V*math.Log(dV+1))))
			sumL += l
			sumV += V
			cnt++
		}
		if cnt == 0 {
			continue
		}
		n := float64(cnt)
		t.Add(fmt.Sprint(atoms), fmt.Sprintf("%.1f", sumL/n), fmt.Sprintf("%.1f", sumV/n),
			fmt.Sprintf("%.2fms", float64(sumTime)/n/1e6), fmtF(stats.mean()), fmtF(stats.max))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "shape to check: runtime grows smoothly in l and the measured ratio stays near 1 — the combined-complexity guarantee is not just asymptotic slack.")
	fmt.Fprintln(w)
	return nil
}

// nowNanos isolates the clock read for the E18 timing.
func nowNanos() int64 { return time.Now().UnixNano() }
