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
// order (the CLI mirror of the server's POST /solve/batch).
//
// -timeout bounds the solve; on expiry the run fails unless the solver
// carried an incumbent (anytime solvers), which is then printed as a
// partial result. -resilience computes per-query resilience instead of a
// deletion, with -resilience-budget bounding its exact search.
//
// -stats text|json prints per-phase timings (parse, views, classify,
// solve, evaluate) and the search-progress counters (nodes expanded,
// branches pruned, checkpoints, incumbent updates, restarts) after the
// solve. Solves run through the same core engine as delpropd's, so json
// prints the phaseMs, stats (objective, lower bound, quality ratio
// included) and race objects of the daemon's /solve response (see
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
	"delprop/internal/relation"
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
	dbPath := flag.String("db", "", "database file (textio format)")
	qPath := flag.String("queries", "", "datalog query program")
	dPath := flag.String("delete", "", "deletion request file")
	solverName := flag.String("solver", "auto",
		"algorithm to run: auto (classification-driven default) or one of "+strings.Join(core.SolverNames(), ", "))
	balanced := flag.Bool("balanced", false, "report the balanced objective")
	explain := flag.Bool("explain", false, "print each query's join plan")
	timeout := flag.Duration("timeout", 0, "bound the solve (0 = no limit)")
	resilience := flag.Bool("resilience", false, "compute per-query resilience instead of a deletion")
	resilienceBudget := flag.Int("resilience-budget", 24, "candidate bound for the exact resilience search")
	stats := flag.String("stats", "", "print per-phase timings and search counters after the solve: \"text\" or \"json\"")
	batch := flag.Bool("batch", false, "treat -delete as blank-line-separated stanzas solved concurrently (the CLI mirror of POST /solve/batch)")
	batchWorkers := flag.Int("batch-workers", 4, "concurrent item solves in -batch mode")
	session := flag.Bool("session", false, "in -batch mode, build the instance skeleton (views, index, classification) once and specialize it per stanza — the CLI mirror of POST /sessions warm solves")
	flag.Parse()

	if *dbPath == "" || *qPath == "" || (*dPath == "" && !*resilience) {
		flag.Usage()
		os.Exit(2)
	}
	if *stats != "" && *stats != "text" && *stats != "json" {
		fmt.Fprintf(os.Stderr, "delprop: -stats must be \"text\" or \"json\", got %q\n", *stats)
		os.Exit(2)
	}
	opts := options{
		solver:           *solverName,
		balanced:         *balanced,
		explain:          *explain,
		timeout:          *timeout,
		resilience:       *resilience,
		resilienceBudget: *resilienceBudget,
		stats:            *stats,
		session:          *session,
	}
	if *session && !*batch {
		fmt.Fprintln(os.Stderr, "delprop: -session requires -batch (one-shot runs have nothing to keep warm)")
		os.Exit(2)
	}
	if *batch {
		if *resilience {
			fmt.Fprintln(os.Stderr, "delprop: -batch and -resilience are mutually exclusive")
			os.Exit(2)
		}
		if err := runBatch(*dbPath, *qPath, *dPath, *batchWorkers, opts); err != nil {
			fmt.Fprintln(os.Stderr, "delprop:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*dbPath, *qPath, *dPath, opts); err != nil {
		fmt.Fprintln(os.Stderr, "delprop:", err)
		os.Exit(1)
	}
}

type options struct {
	solver           string
	balanced         bool
	explain          bool
	timeout          time.Duration
	resilience       bool
	resilienceBudget int
	// stats selects the post-solve report: "" (off), "text" or "json".
	stats string
	// session shares one prebuilt skeleton across -batch stanzas.
	session bool
}

func run(dbPath, qPath, dPath string, opts options) error {
	phases := make(map[string]time.Duration)
	phase := func(name string) func() {
		start := time.Now()
		return func() { phases[name] = time.Since(start) }
	}
	end := phase(telemetry.PhaseParse)
	db, queries, err := loadProgram(dbPath, qPath)
	if err != nil {
		return err
	}

	if opts.resilience {
		ctx := context.Background()
		if opts.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opts.timeout)
			defer cancel()
		}
		for _, q := range queries {
			n, sol, err := core.Resilience(ctx, q, db, opts.resilienceBudget)
			if err != nil {
				return fmt.Errorf("%s: %w", q.Name, err)
			}
			fmt.Printf("resilience(%s) = %d  witness %s\n", q.Name, n, sol)
		}
		return nil
	}

	dSrc, err := os.ReadFile(dPath)
	if err != nil {
		return err
	}
	delta, err := textio.ParseDeletions(string(dSrc), queries)
	if err != nil {
		return err
	}
	end()
	end = phase(telemetry.PhaseViews)
	p, err := core.NewProblem(db, queries, delta)
	if err != nil {
		return err
	}
	end()

	end = phase(telemetry.PhaseClassify)
	if opts.explain {
		for _, q := range queries {
			plan, err := cq.ExplainPlan(q, db)
			if err != nil {
				return err
			}
			fmt.Printf("plan for %s:\n%s", q.Name, plan)
		}
	}
	res, err := classify.MultiQuery(queries, cq.InstanceSchemas(db))
	if err != nil {
		return err
	}
	fmt.Printf("instance: |D|=%d, %d queries, ‖V‖=%d, ‖ΔV‖=%d, key-preserving=%v\n",
		db.Size(), len(queries), p.TotalViewSize(), p.Delta.Len(), p.IsKeyPreserving())
	fmt.Printf("classification: %s\n", res.Class)
	for _, g := range res.Guarantees {
		fmt.Printf("  - %s\n", g)
	}
	solver, err := server.PickSolver(opts.solver, p)
	if err != nil {
		return err
	}
	end()
	fmt.Printf("solver: %s\n", solver.Name())

	out, err := core.Run(context.Background(), solver, p, opts.timeout, core.RunHooks{Phase: phase, Bound: core.DualBound})
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

// loadProgram reads and parses the database and query program files.
func loadProgram(dbPath, qPath string) (*relation.Instance, []*cq.Query, error) {
	dbSrc, err := os.ReadFile(dbPath)
	if err != nil {
		return nil, nil, err
	}
	db, err := textio.ParseDatabase(string(dbSrc))
	if err != nil {
		return nil, nil, err
	}
	qSrc, err := os.ReadFile(qPath)
	if err != nil {
		return nil, nil, err
	}
	queries, err := cq.ParseProgram(string(qSrc))
	return db, queries, err
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
