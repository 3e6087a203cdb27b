package bench

import (
	"errors"
	"fmt"
	"io"

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
			view, _, err := solve(rec, &core.RedBlueExact{}, p)
			if err != nil {
				return err
			}
			// The source optimum is the comparison point, not the measured
			// solve: its counters stay out of rec.
			src, _, err := solve(nil, &core.SourceExact{}, p)
			if err != nil {
				if errors.Is(err, core.ErrTooLarge) {
					continue
				}
				return err
			}
			vRep, sRep := view.Report, src.Report
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
