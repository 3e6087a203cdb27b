package bench

import (
	"fmt"
	"io"
	"time"

	"delprop/internal/benchkit"
	"delprop/internal/core"
	"delprop/internal/view"
	"delprop/internal/workload"
)

// E20: warm sessions. A stream of deletion requests against one fixed
// instance is solved two ways — cold (the pre-session protocol: parse,
// index and materialize from scratch for every request) and warm (build
// the skeleton once, Specialize per request, exactly what POST
// /sessions/{id}/solve does). Two artifacts:
//
//  1. The speedup table — median wall-clock of the full request stream,
//     cold vs warm, per workload family. Amortizing the skeleton is the
//     whole point of the session registry, so the warm column must sit
//     well under the cold one.
//  2. The determinism contract — every warm answer must be byte-identical
//     to its cold answer, gated through quality records so benchdiff
//     fails hard on any divergence.

// sessionStream is how many deletion requests hit each instance.
const sessionStream = 8

// sessionWorkloads are the E20 instance families, sized so view
// materialization visibly dominates a single greedy solve.
func sessionWorkloads() map[string]*workload.Workload {
	return map[string]*workload.Workload{
		"star": workload.Star(workload.StarConfig{
			Seed: 7, Relations: 4, HubValues: 3, RowsPerRelation: 40, Queries: 3, AtomsPerQuery: 3,
		}),
		"chain": workload.Chain(workload.ChainConfig{
			Seed: 7, Length: 6, Domain: 4, RowsPerRelation: 200, Queries: 5, MaxSpan: 3,
		}),
		"bibliography": workload.Bibliography(workload.BibliographyConfig{
			Seed: 7, Authors: 60, Journals: 12, Topics: 8, PapersPerAuthor: 4, TopicsPerJournal: 3,
		}),
	}
}

func runSessionWarm(w io.Writer, rec *benchkit.Recorder) error {
	t := &Table{
		Title: fmt.Sprintf("E20: warm sessions — cold vs warm solve stream (%d requests per instance)",
			sessionStream),
		Headers: []string{"workload", "cold ms (stream)", "warm ms (stream)", "speedup", "byte-identical"},
	}
	names := []string{"star", "chain", "bibliography"}
	loads := sessionWorkloads()
	for _, name := range names {
		wl := loads[name]
		// Sample the request stream off a throwaway skeleton so both
		// protocols see the same deletions.
		ref, err := core.NewProblem(wl.DB, wl.Queries, nil)
		if err != nil {
			return err
		}
		deltas := make([]*view.Deletion, 0, sessionStream)
		for i := 0; i < sessionStream; i++ {
			deltas = append(deltas, workload.SampleDeletion(ref.Views, 2, int64(1000+i)))
		}

		// Cold protocol: every request re-parses nothing (the structures
		// are in memory) but re-indexes and re-materializes everything —
		// the per-request cost POST /solve pays.
		coldSols := make([]*core.Solution, sessionStream)
		coldMs, err := medianMs(3, rec, func(rec *benchkit.Recorder) (time.Duration, error) {
			start := time.Now()
			for i, d := range deltas {
				p, err := core.NewProblem(wl.DB, wl.Queries, d)
				if err != nil {
					return 0, err
				}
				res, _, err := solve(rec, &core.Greedy{}, p)
				if err != nil {
					return 0, err
				}
				coldSols[i] = res.Solution
			}
			return time.Since(start), nil
		})
		if err != nil {
			return err
		}

		// Warm protocol: one skeleton, specialized per request. The
		// skeleton build is inside the measured stream, so the speedup
		// already pays for the registration.
		identical := true
		warmMs, err := medianMs(3, rec, func(rec *benchkit.Recorder) (time.Duration, error) {
			start := time.Now()
			skel, err := core.NewProblem(wl.DB, wl.Queries, nil)
			if err != nil {
				return 0, err
			}
			for i, d := range deltas {
				p, err := skel.Specialize(d)
				if err != nil {
					return 0, err
				}
				res, _, err := solve(rec, &core.Greedy{}, p)
				if err != nil {
					return 0, err
				}
				if res.Solution.String() != coldSols[i].String() {
					identical = false
				}
			}
			return time.Since(start), nil
		})
		if err != nil {
			return err
		}

		// guarantee 1 on a zero lower bound: any warm/cold divergence is a
		// contract violation, and benchdiff fails the capture on it.
		mismatch := 0.0
		if !identical {
			mismatch = 1
		}
		rec.Quality(benchkit.NewQuality(
			fmt.Sprintf("session workload=%s", name), "session-warm", mismatch, 0, 1))

		speedup := "n/a"
		if warmMs > 0 {
			speedup = fmt.Sprintf("%.2fx", coldMs/warmMs)
		}
		t.Add(name, fmt.Sprintf("%.1f", coldMs), fmt.Sprintf("%.1f", warmMs),
			speedup, fmt.Sprintf("%v", identical))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "shape to check: byte-identical must be true in every row — warm solves share the skeleton but never the answer state. The speedup column should sit well above 1x (the stream amortizes one skeleton build across all requests); exact magnitude is hardware-bound, so compare captures with benchdiff.")
	fmt.Fprintln(w)
	return nil
}
