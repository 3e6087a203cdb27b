package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/server"
	"delprop/internal/textio"
)

// -batch mode: the deletion file holds several deletion requests
// separated by blank lines, each solved as its own instance against the
// shared database and query program. Items run concurrently through a
// bounded worker pool (-batch-workers), but the report always comes out
// in input order — the CLI mirror of the server's POST /solve/batch.

// splitStanzas cuts src into blank-line-separated stanzas, dropping
// stanzas that hold only comments or whitespace.
func splitStanzas(src string) []string {
	var out []string
	for _, chunk := range strings.Split(src, "\n\n") {
		meaningful := false
		for _, line := range strings.Split(chunk, "\n") {
			l := strings.TrimSpace(line)
			if l != "" && !strings.HasPrefix(l, "#") && !strings.HasPrefix(l, "%") {
				meaningful = true
				break
			}
		}
		if meaningful {
			out = append(out, chunk)
		}
	}
	return out
}

// batchItem is one solved stanza's report, rendered off the worker
// goroutine into a buffer so items never interleave on stdout.
type batchItem struct {
	text string
	err  error
}

func runBatch(dbPath, qPath, dPath string, workers int, opts options) error {
	db, queries, err := loadProgram(dbPath, qPath)
	if err != nil {
		return err
	}
	dSrc, err := os.ReadFile(dPath)
	if err != nil {
		return err
	}
	stanzas := splitStanzas(string(dSrc))
	if len(stanzas) == 0 {
		return fmt.Errorf("%s: no deletion stanzas (separate batch items with blank lines)", dPath)
	}
	workers = max(1, min(workers, len(stanzas)))

	ctx := context.Background()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}

	// -session builds the skeleton (inverted index, views, classification)
	// once and specializes it per stanza — the CLI mirror of the server's
	// POST /sessions warm path. Every worker shares the one skeleton; the
	// specialized problems only carry their own delta and weights.
	var skel *core.Problem
	if opts.session {
		if skel, err = core.NewProblem(db, queries, nil); err != nil {
			return err
		}
	}

	results := make([]batchItem, len(stanzas))
	jobs := make(chan int, len(stanzas))
	for i := range stanzas {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				var buf strings.Builder
				err := solveStanza(ctx, &buf, db, queries, skel, stanzas[idx], opts)
				results[idx] = batchItem{text: buf.String(), err: err}
			}
		}()
	}
	wg.Wait()

	failed := 0
	for i, r := range results {
		fmt.Printf("== item %d ==\n", i)
		os.Stdout.WriteString(r.text)
		if r.err != nil {
			failed++
			fmt.Printf("error: %v\n", r.err)
		}
		fmt.Println()
	}
	fmt.Printf("batch: %d items, %d ok, %d failed, %d workers\n",
		len(results), len(results)-failed, failed, workers)
	if failed > 0 {
		return fmt.Errorf("%d of %d batch items failed", failed, len(results))
	}
	return nil
}

// solveStanza solves one deletion stanza against the shared database and
// queries — with -session, by specializing the prebuilt skeleton instead
// of materializing the views again — and writes the per-item report.
func solveStanza(ctx context.Context, w io.Writer, db *relation.Instance, queries []*cq.Query, skel *core.Problem, stanza string, opts options) error {
	delta, err := textio.ParseDeletions(stanza, queries)
	if err != nil {
		return err
	}
	var p *core.Problem
	if skel != nil {
		p, err = skel.Specialize(delta)
	} else {
		p, err = core.NewProblem(db, queries, delta)
	}
	if err != nil {
		return err
	}
	solver, err := server.PickSolver(opts.solver, p)
	if err != nil {
		return err
	}
	out, err := core.Run(ctx, solver, p, opts.timeout, core.RunHooks{Bound: core.DualBound})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "solver: %s\n", solver.Name())
	writeAnswer(w, out, opts, false)
	if opts.stats != "" {
		fmt.Fprintf(w, "nodes expanded: %d  checkpoints: %d\n", out.Stats.NodesExpanded, out.Stats.Checkpoints)
	}
	return nil
}
