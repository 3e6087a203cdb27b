// Command qocosim simulates the query-oriented interactive cleaning loop
// of Section V (after the QOCO system the paper discusses): a database
// with planted corrupt tuples, an oracle (domain expert) who inspects a
// few query answers per round, and deletion propagation translating the
// feedback back to the source. It reports the convergence of the cleaning
// process round by round and compares the paper's batch processing against
// one-at-a-time feedback handling. The engine lives in internal/repair.
//
// Usage:
//
//	qocosim -seed 1 -rounds 8 -per-round 4 -mode batch
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"

	"delprop/internal/repair"
	"delprop/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed")
	rounds := flag.Int("rounds", 8, "maximum interaction rounds")
	perRound := flag.Int("per-round", 4, "view tuples the oracle inspects per round")
	mode := flag.String("mode", "batch", "feedback processing: batch or sequential")
	flag.Parse()
	if err := run(os.Stdout, *seed, *rounds, *perRound, *mode); err != nil {
		fmt.Fprintln(os.Stderr, "qocosim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, seed int64, rounds, perRound int, mode string) error {
	var m repair.Mode
	switch mode {
	case "batch":
		m = repair.Batch
	case "sequential":
		m = repair.Sequential
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	wl := workload.Star(workload.StarConfig{
		Seed: seed, Relations: 4, HubValues: 4, RowsPerRelation: 8,
		Queries: 3, AtomsPerQuery: 2,
	})
	db := wl.DB.Clone()
	corrupt := workload.PlantedErrors(db, 0.15, seed+500)
	session := &repair.Session{
		DB:      db,
		Queries: wl.Queries,
		Oracle:  repair.PlantedOracle(corrupt),
		Mode:    m,
		Rng:     rand.New(rand.NewSource(seed + 900)),
	}

	fmt.Fprintf(w, "qocosim: |D|=%d, %d corrupt tuples planted, mode=%s\n\n", db.Size(), len(corrupt), mode)
	fmt.Fprintf(w, "%-6s %-12s %-16s %-14s %-12s\n", "round", "wrong views", "oracle marked", "deleted (bad)", "deleted (good)")

	reports, err := session.Run(rounds, perRound)
	if err != nil {
		return err
	}
	totalBad, totalGood := 0, 0
	for _, r := range reports {
		if r.Wrong == 0 {
			fmt.Fprintf(w, "%-6d converged: no wrong view tuples remain\n", r.Round)
			break
		}
		bad, good := 0, 0
		for _, id := range r.Deleted {
			if slices.ContainsFunc(corrupt, id.Equal) {
				bad++
			} else {
				good++
			}
		}
		totalBad += bad
		totalGood += good
		fmt.Fprintf(w, "%-6d %-12d %-16d %-14d %-12d\n", r.Round, r.Wrong, r.Marked, bad, good)
	}
	fmt.Fprintf(w, "\ntotal: %d corrupt tuples removed, %d clean tuples sacrificed, %d corrupt remain\n",
		totalBad, totalGood, len(corrupt)-totalBad)
	return nil
}
