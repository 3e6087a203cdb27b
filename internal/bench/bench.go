// Package bench implements the experiment harness: every table and figure
// of the paper, plus the empirical validation of its theorems, is one
// Experiment that regenerates the corresponding rows/series. The
// cmd/benchrunner binary runs them; EXPERIMENTS.md records
// paper-vs-measured for each.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"delprop/internal/benchkit"
	"delprop/internal/core"
	"delprop/internal/telemetry"
)

// Table is a printable result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md (E1..E20).
	ID string
	// Artifact names the paper table/figure/theorem being reproduced.
	Artifact string
	// Run executes the experiment, writing its tables to w and reporting
	// structured samples (search counters, per-instance quality records)
	// into rec. A nil rec is a valid no-op sink — text-only runs and tests
	// pass nil.
	Run func(w io.Writer, rec *benchkit.Recorder) error
}

// solve runs s on p through core.Run, the solve path delpropd and the
// CLI share, and adds the search counters to rec. Besides the result it
// returns the wall time of the solve phase alone, as Run's phase hook
// measures it: evaluation and the dual bound are not in it.
func solve(rec *benchkit.Recorder, s core.Solver, p *core.Problem) (*core.RunResult, time.Duration, error) {
	var took time.Duration
	phase := func(name string) func() {
		if name != telemetry.PhaseSolve {
			return func() {}
		}
		start := time.Now()
		return func() { took = time.Since(start) }
	}
	res, err := core.Run(context.Background(), s, p, 0, core.RunHooks{Phase: phase})
	if err != nil {
		return nil, 0, err
	}
	st := res.Stats
	rec.AddSearch(benchkit.SearchCounters{
		NodesExpanded: st.NodesExpanded, BranchesPruned: st.BranchesPruned, Checkpoints: st.Checkpoints,
		IncumbentUpdates: st.IncumbentUpdates, Restarts: st.Restarts,
	})
	return res, took, nil
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Artifact: "Table II (poly source side-effect)", Run: runTable2},
		{ID: "E2", Artifact: "Table III (hard source side-effect)", Run: runTable3},
		{ID: "E3", Artifact: "Table IV (poly view side-effect)", Run: runTable4},
		{ID: "E4", Artifact: "Table V (hard view side-effect)", Run: runTable5},
		{ID: "E5", Artifact: "Fig 1 (worked example)", Run: runFig1},
		{ID: "E6", Artifact: "Fig 2 / Theorem 1 (reduction)", Run: runFig2},
		{ID: "E7", Artifact: "Fig 3 (dual hypergraphs)", Run: runFig3},
		{ID: "E8", Artifact: "Claim 1 (general-case ratio)", Run: runClaim1},
		{ID: "E9", Artifact: "Lemma 1 (balanced ratio)", Run: runLemma1},
		{ID: "E10", Artifact: "Theorem 3 (primal-dual l-approx)", Run: runThm3},
		{ID: "E11", Artifact: "Theorem 4 (2√‖V‖-approx)", Run: runThm4},
		{ID: "E12", Artifact: "Algorithm 4 / Prop 1 (DP exactness & runtime)", Run: runDPTree},
		{ID: "E13", Artifact: "Scalability sweep", Run: runScalability},
		{ID: "E14", Artifact: "Theorems 1–2 (hardness gap illustration)", Run: runHardnessGap},
		{ID: "E15", Artifact: "§V cleaning application (extension study)", Run: runCleaning},
		{ID: "E16", Artifact: "Resilience triad dichotomy (extension study)", Run: runResilience},
		{ID: "E17", Artifact: "View vs source side-effect tradeoff (extension study)", Run: runTradeoff},
		{ID: "E18", Artifact: "Combined complexity: query-width sweep (extension study)", Run: runCombined},
		{ID: "E19", Artifact: "Parallel solve engine: greedy scaling curve + portfolio race (extension study)", Run: runParallelSpeedup},
		{ID: "E20", Artifact: "Warm sessions: cold vs warm solve stream + determinism contract (extension study)", Run: runSessionWarm},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
