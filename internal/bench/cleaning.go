package bench

import (
	"fmt"
	"io"
	"math/rand"
	"slices"

	"delprop/internal/benchkit"
	"delprop/internal/core"
	"delprop/internal/lineage"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// runCleaning is experiment E15, the extension study for the Section V
// query-oriented cleaning application: plant corrupt source tuples, derive
// oracle feedback from a fraction f of the affected view tuples, propagate
// the deletions, and measure precision/recall of the deleted tuples
// against the planted errors. The paper's qualitative claim — "the more
// queries and its views, the closer we approach the side-effect free
// solution" — becomes a measurable recall curve in f.
func runCleaning(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title:   "E15 (extension): planted-error recovery vs feedback completeness",
		Headers: []string{"feedback fraction", "planted", "marked view tuples", "deleted", "precision", "recall", "side effect"},
	}
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		var sumPrec, sumRec, sumSE float64
		var sumPlanted, sumMarked, sumDeleted int
		trials := 0
		for seed := int64(1); seed <= 6; seed++ {
			wl := workload.Star(workload.StarConfig{
				Seed: seed, Relations: 4, HubValues: 4, RowsPerRelation: 8,
				Queries: 3, AtomsPerQuery: 2,
			})
			skel, err := core.NewProblem(wl.DB, wl.Queries, nil)
			if err != nil {
				return err
			}
			planted := workload.PlantedErrors(wl.DB, 0.15, seed+500)
			if len(planted) == 0 {
				continue
			}
			// Oracle feedback: every view tuple whose provenance touches a
			// corrupt tuple is wrong; only a fraction is reported.
			rng := rand.New(rand.NewSource(seed + 900))
			x := skel.Index()
			marked := view.NewDeletion()
			for r, wrong := range lineage.Touched(x, planted...) {
				if wrong && rng.Float64() < frac {
					marked.Add(x.Ref(int32(r)))
				}
			}
			if marked.Len() == 0 {
				continue
			}
			p, err := skel.Specialize(marked)
			if err != nil {
				return err
			}
			sol, err := recordedSolve(rec, &core.RedBlue{}, p)
			if err != nil {
				return err
			}
			rep := p.Evaluate(sol)
			tp := 0
			for _, id := range sol.Deleted {
				if slices.ContainsFunc(planted, id.Equal) {
					tp++
				}
			}
			prec := 1.0
			if len(sol.Deleted) > 0 {
				prec = float64(tp) / float64(len(sol.Deleted))
			}
			rec := float64(tp) / float64(len(planted))
			sumPrec += prec
			sumRec += rec
			sumSE += rep.SideEffect
			sumPlanted += len(planted)
			sumMarked += p.DeltaLen()
			sumDeleted += len(sol.Deleted)
			trials++
		}
		if trials == 0 {
			continue
		}
		n := float64(trials)
		t.Add(fmt.Sprintf("%.2f", frac),
			fmt.Sprintf("%.1f", float64(sumPlanted)/n),
			fmt.Sprintf("%.1f", float64(sumMarked)/n),
			fmt.Sprintf("%.1f", float64(sumDeleted)/n),
			fmt.Sprintf("%.3f", sumPrec/n),
			fmt.Sprintf("%.3f", sumRec/n),
			fmt.Sprintf("%.2f", sumSE/n))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "shape to check: recall rises with feedback completeness (the paper's §V claim).")
	fmt.Fprintln(w)
	return nil
}
