// Command delprop solves a deletion-propagation instance: given a database
// file, a query program and a deletion request, it computes a source
// deletion ΔD minimizing the view side-effect with the chosen algorithm and
// prints the deletion and its evaluation.
//
// Usage:
//
//	delprop -db db.txt -queries q.dl -delete del.txt [-solver red-blue] [-balanced] [-timeout 30s]
//
// -solver takes auto (the classification-driven default) or any name in
// the core solver registry; delprop -h lists them.
//
// -batch treats the -delete file as blank-line-separated deletion
// stanzas, each solved as its own instance against the shared database
// and queries through a -batch-workers pool; the report stays in input
// order (the CLI mirror of the server's POST /solve/batch). With -batch,
// -stats text prints per-item counters only; -stats json is rejected.
//
// -timeout bounds the solve; on expiry the run fails unless the solver
// carried an incumbent (anytime solvers), which is then printed as a
// partial result. -resilience computes per-query resilience instead of a
// deletion, with -resilience-budget bounding its exact search.
//
// -stats text|json prints per-phase timings (parse, views, classify,
// solve, evaluate) and the search-progress counters (nodes expanded,
// branches pruned, checkpoints, incumbent updates, restarts) after the
// solve. Files are read before any phase opens, and the phases are
// delpropd's (core.Prepare, solver routing, core.Run), so json prints
// the phaseMs, stats (objective, lower bound, quality ratio included)
// and race objects of the daemon's /solve response (see
// docs/OBSERVABILITY.md).
//
// delprop tail follows a running delpropd daemon's GET /events stream
// (solve lifecycle, incumbents, race members, admission and breaker
// events) and renders each event as one log line, or raw JSON with
// -json:
//
//	delprop tail -addr http://127.0.0.1:8080 [-tenant t] [-solver s] [-type a,b] [-json] [-n count]
//
// delprop top renders a live terminal dashboard over the daemon's rolling
// time-series (GET /debug/series): solve throughput and latency
// quantiles, a per-solver table with breaker states, SLO rule standings
// and the newest postmortem bundles, refreshed in place every -interval:
//
//	delprop top -addr http://127.0.0.1:8080 [-interval 2s] [-window 1m] [-n frames] [-plain]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"delprop/internal/classify"
	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/server"
	"delprop/internal/telemetry"
	"delprop/internal/textio"
)

func main() {
	// Subcommand dispatch happens before flag.Parse so "tail" owns its own
	// flag set; everything else falls through to the classic solve CLI.
	if len(os.Args) > 1 && os.Args[1] == "tail" {
		os.Exit(runTail(os.Args[2:], os.Stdout, os.Stderr))
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		os.Exit(runTop(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runSolve(os.Args[1:], os.Stderr))
}

// runSolve is the solve CLI: it parses args, runs the requested mode and
// returns the exit status — 2 for a usage error, 1 for a failed run.
func runSolve(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("delprop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "database file (textio format)")
	qPath := fs.String("queries", "", "datalog query program")
	dPath := fs.String("delete", "", "deletion request file")
	solverName := fs.String("solver", "auto",
		"algorithm to run: auto (classification-driven default) or one of "+strings.Join(core.SolverNames(), ", "))
	balanced := fs.Bool("balanced", false, "report the balanced objective")
	explain := fs.Bool("explain", false, "print each query's join plan")
	timeout := fs.Duration("timeout", 0, "bound the solve (0 = no limit)")
	resilience := fs.Bool("resilience", false, "compute per-query resilience instead of a deletion")
	resilienceBudget := fs.Int("resilience-budget", 24, "candidate bound for the exact resilience search")
	stats := fs.String("stats", "", "print per-phase timings and search counters after the solve: \"text\" or \"json\"")
	batch := fs.Bool("batch", false, "treat -delete as blank-line-separated stanzas solved concurrently (the CLI mirror of POST /solve/batch)")
	batchWorkers := fs.Int("batch-workers", 4, "concurrent item solves in -batch mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *dbPath == "" || *qPath == "" || (*dPath == "" && !*resilience) {
		fs.Usage()
		return 2
	}
	if *stats != "" && *stats != "text" && *stats != "json" {
		fmt.Fprintf(stderr, "delprop: -stats must be \"text\" or \"json\", got %q\n", *stats)
		return 2
	}
	opts := options{
		solver:           *solverName,
		balanced:         *balanced,
		explain:          *explain,
		timeout:          *timeout,
		resilienceBudget: *resilienceBudget,
		stats:            *stats,
	}
	if *batch && (*resilience || *stats == "json") {
		fmt.Fprintln(stderr, "delprop: -batch takes neither -resilience nor -stats json (-stats text prints per-item counters)")
		return 2
	}
	var err error
	switch {
	case *batch:
		err = runBatch(*dbPath, *qPath, *dPath, *batchWorkers, opts)
	case *resilience:
		err = runResilience(*dbPath, *qPath, opts)
	default:
		err = run(*dbPath, *qPath, *dPath, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "delprop:", err)
		return 1
	}
	return 0
}

type options struct {
	solver           string
	balanced         bool
	explain          bool
	timeout          time.Duration
	resilienceBudget int
	// stats selects the post-solve report: "" (off), "text" or "json".
	stats string
}

func run(dbPath, qPath, dPath string, opts options) error {
	srcs, err := readFiles(dbPath, qPath, dPath)
	if err != nil {
		return err
	}
	phases := make(map[string]time.Duration)
	phase := func(name string) func() {
		start := time.Now()
		return func() { phases[name] = time.Since(start) }
	}
	p, err := core.Prepare(core.Source{Database: srcs[0], Queries: srcs[1], Deletions: srcs[2]}, phase)
	if err != nil {
		return err
	}

	if opts.explain {
		for _, q := range p.Queries {
			plan, err := cq.ExplainPlan(q, p.DB)
			if err != nil {
				return err
			}
			fmt.Printf("plan for %s:\n%s", q.Name, plan)
		}
	}
	res, err := classify.MultiQuery(p.Queries, cq.InstanceSchemas(p.DB))
	if err != nil {
		return err
	}
	fmt.Printf("instance: |D|=%d, %d queries, ‖V‖=%d, ‖ΔV‖=%d, key-preserving=%v\n",
		p.DB.Size(), len(p.Queries), p.TotalViewSize(), p.DeltaLen(), p.IsKeyPreserving())
	fmt.Printf("classification: %s\n", res.Class)
	for _, g := range res.Guarantees {
		fmt.Printf("  - %s\n", g)
	}
	// The classify phase is solver routing alone, as in delpropd.
	end := phase(telemetry.PhaseClassify)
	solver, err := server.PickSolver(opts.solver, p)
	end()
	if err != nil {
		return err
	}
	fmt.Printf("solver: %s\n", solver.Name())

	out, err := core.Run(context.Background(), solver, p, opts.timeout, core.RunHooks{Phase: phase})
	if err != nil {
		return err
	}
	// An interrupted solver that carried an incumbent: report the partial
	// result rather than discarding the work.
	switch out.Interrupted {
	case "deadline":
		fmt.Printf("timeout after %v — reporting the solver's incumbent\n", opts.timeout)
	case "canceled":
		fmt.Println("canceled — reporting the solver's incumbent")
	}
	writeAnswer(os.Stdout, out, opts, true)
	if opts.stats != "" {
		return printStats(os.Stdout, opts.stats, phases, out)
	}
	return nil
}

// runResilience prints each query's resilience and a witness deletion.
func runResilience(dbPath, qPath string, opts options) error {
	srcs, err := readFiles(dbPath, qPath)
	if err != nil {
		return err
	}
	db, queries, err := textio.ParseInstance(srcs[0], srcs[1])
	if err != nil {
		return err
	}
	ctx, cancel := opts.context()
	defer cancel()
	for _, q := range queries {
		sol, _, err := core.Resilience(ctx, q, db, opts.resilienceBudget)
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		fmt.Printf("resilience(%s) = %d  witness %s\n", q.Name, len(sol.Deleted), sol)
	}
	return nil
}

// context bounds a -batch or -resilience run by -timeout when positive.
func (o options) context() (context.Context, context.CancelFunc) {
	if o.timeout > 0 {
		return context.WithTimeout(context.Background(), o.timeout)
	}
	return context.WithCancel(context.Background())
}

// readFiles reads the named files, stopping at the first error.
func readFiles(paths ...string) ([]string, error) {
	srcs := make([]string, len(paths))
	for i, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		srcs[i] = string(b)
	}
	return srcs, nil
}

// writeAnswer prints the answer lines run and -batch share; run also
// lists the collateral view tuples on the side-effect line.
func writeAnswer(w io.Writer, out *core.RunResult, opts options, collateral bool) {
	fmt.Fprintf(w, "deletion: %s\n", out.Solution)
	if out.Partial {
		fmt.Fprintln(w, "partial: true (search interrupted before completion)")
	}
	fmt.Fprintf(w, "feasible: %v\n", out.Report.Feasible)
	fmt.Fprintf(w, "side effect: %v", out.Report.SideEffect)
	if collateral && len(out.Report.Collateral) > 0 {
		fmt.Fprintf(w, "  (collateral:")
		for _, r := range out.Report.Collateral {
			fmt.Fprintf(w, " %s", r)
		}
		fmt.Fprintf(w, ")")
	}
	fmt.Fprintln(w)
	if opts.balanced {
		fmt.Fprintf(w, "balanced objective: %v (bad remaining %d)\n", out.Report.Balanced, out.Report.BadRemaining)
	}
}

// statsReport is the -stats json schema: the phaseMs, stats and race
// fields of delpropd's SolveResponse, in the same shapes.
type statsReport struct {
	PhaseMs map[string]float64 `json:"phaseMs"`
	Stats   core.StatsSnapshot `json:"stats"`
	Race    *core.RaceSnapshot `json:"race,omitempty"`
}

// printStats writes the post-solve report in the requested form.
func printStats(w io.Writer, form string, phases map[string]time.Duration, out *core.RunResult) error {
	snap := out.Stats
	if form == "json" {
		phaseMs := make(map[string]float64, len(phases))
		for name, d := range phases {
			phaseMs[name] = float64(d) / float64(time.Millisecond)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(statsReport{PhaseMs: phaseMs, Stats: snap, Race: out.Race})
	}
	fmt.Fprintln(w, "phase timings:")
	for _, name := range telemetry.Phases {
		if d, ok := phases[name]; ok {
			fmt.Fprintf(w, "  %-9s %v\n", name, d.Round(time.Microsecond))
		}
	}
	fmt.Fprintln(w, "search counters:")
	fmt.Fprintf(w, "  nodes expanded    %d\n", snap.NodesExpanded)
	fmt.Fprintf(w, "  branches pruned   %d\n", snap.BranchesPruned)
	fmt.Fprintf(w, "  checkpoints       %d\n", snap.Checkpoints)
	fmt.Fprintf(w, "  incumbent updates %d\n", snap.IncumbentUpdates)
	fmt.Fprintf(w, "  restarts          %d\n", snap.Restarts)
	for _, ev := range snap.Incumbents {
		fmt.Fprintf(w, "    incumbent: objective=%v deleted=%d at=%s\n",
			ev.Objective, ev.Deleted, ev.At.Format(time.RFC3339Nano))
	}
	return nil
}
