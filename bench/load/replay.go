package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/server"
	"delprop/internal/session"
	"delprop/internal/textio"
	"delprop/internal/view"
)

// replayCount is how many leading stream entries the traced run replays.
const replayCount = 128

// layers are the per-request steps of a solve, in the order delpropd
// runs them, named after the modules that do the work. Every replayed
// solve records one span per layer. Where a request's path skips a layer
// — no materialization on a warm session, no bound for a
// non-key-preserving instance — the span covers only the check that
// skips it, so the layer reads as (nearly) zero time.
var layers = []string{"parse", "views", "specialize", "classify", "solve", "evaluate", "bound"}

// span is one timed step of a replayed solve. Times are nanoseconds since
// the replay began.
type span struct {
	Solve  int    `json:"solve"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a solve's root span
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Allocs uint64 `json:"allocs"`
}

// tracer keeps spans in memory. Allocation counts are MemStats.Mallocs
// deltas read outside each span's timed interval; the replay runs on one
// goroutine, so they are the solve's own allocations.
type tracer struct {
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

func (t *tracer) begin(solve, parent int, name string) int {
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{Solve: solve, ID: len(t.spans), Parent: parent, Name: name, Allocs: t.ms.Mallocs})
	t.spans[len(t.spans)-1].Start = time.Since(t.t0).Nanoseconds()
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	end := time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&t.ms)
	t.spans[id].End = end
	t.spans[id].Allocs = t.ms.Mallocs - t.spans[id].Allocs
}

// layerStats are the per-layer numbers of a traced run: mean self time
// and allocations per solve for every layer, plus counts. Means, not
// medians: a workload mixes instances whose costs differ tenfold, and the
// mean is the layer's share of the busy time that throughput depends on.
type layerStats struct {
	ms, allocs map[string]float64
	viewTuples float64 // view tuples materialized per solve
	solveNodes float64 // search nodes expanded per solve
	solves     int
	spans      []span
}

// replay runs the first replayCount stream entries serially in this
// process through the public calls delpropd makes for them, one span per
// layer. Warm workloads register each instance once, as POST /sessions
// does, and then acquire the session and specialize its skeleton per
// request. A batch entry replays as its items' cold solves.
func replay(s *stream) (*layerStats, error) {
	ctx := context.Background()
	reg := session.NewRegistry(session.Config{})
	var ids []string
	if s.route == routeWarm {
		for _, in := range s.insts {
			e, _, err := reg.Register(ctx, session.Fingerprint(in.db, in.queries), "", func() (*core.Problem, error) {
				db, err := textio.ParseDatabase(in.db)
				if err != nil {
					return nil, err
				}
				qs, err := cq.ParseProgram(in.queries)
				if err != nil {
					return nil, err
				}
				return core.NewProblem(db, qs, nil)
			})
			if err != nil {
				return nil, err
			}
			ids = append(ids, e.ID)
		}
	}
	tr := &tracer{t0: time.Now()}
	var tuples, nodes []float64
	solve := 0
	for i := 0; i < replayCount; i++ {
		for _, it := range s.at(i) {
			in := s.insts[it.inst]
			var id string
			if ids != nil {
				id = ids[it.inst]
			}
			nt, nn, err := replayOne(ctx, tr, solve, reg, id, in, it.deletions)
			if err != nil {
				return nil, fmt.Errorf("replay entry %d (%s): %w", i, in.name, err)
			}
			tuples, nodes = append(tuples, nt), append(nodes, nn)
			solve++
		}
	}
	st := &layerStats{ms: map[string]float64{}, allocs: map[string]float64{}, solves: solve, spans: tr.spans,
		viewTuples: mean(tuples), solveNodes: mean(nodes)}
	self := map[string][]float64{}
	allocs := map[string][]float64{}
	for _, sp := range tr.spans {
		if sp.Parent >= 0 {
			self[sp.Name] = append(self[sp.Name], float64(sp.End-sp.Start)/1e6)
			allocs[sp.Name] = append(allocs[sp.Name], float64(sp.Allocs))
		}
	}
	for _, l := range layers {
		st.ms[l], st.allocs[l] = mean(self[l]), mean(allocs[l])
	}
	return st, nil
}

// replayOne replays one solve and returns the view tuples it materialized
// and the search nodes its solver expanded. Layer spans have no children,
// so a layer's self time is its span's duration.
func replayOne(ctx context.Context, tr *tracer, solve int, reg *session.Registry, sessionID string, in *instance, deletions string) (tuples, nodes float64, err error) {
	root := tr.begin(solve, -1, "solve")
	defer tr.end(root)
	step := func(name string, f func() error) {
		if err != nil {
			return
		}
		sp := tr.begin(solve, root, name)
		err = f()
		tr.end(sp)
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
	}

	var db *relation.Instance
	var queries []*cq.Query
	var delta *view.Deletion
	var entry *session.Entry
	var skel, p *core.Problem
	var solver core.Solver
	var sol *core.Solution
	var stats *core.Stats
	step("parse", func() (err error) {
		if sessionID != "" {
			delta, err = textio.ParseDeletions(deletions, in.skel.Queries)
			return err
		}
		if db, err = textio.ParseDatabase(in.db); err != nil {
			return err
		}
		if queries, err = cq.ParseProgram(in.queries); err != nil {
			return err
		}
		delta, err = textio.ParseDeletions(deletions, queries)
		return err
	})
	step("views", func() (err error) {
		if sessionID != "" {
			if entry, err = reg.Acquire(ctx, sessionID); err == nil {
				skel = entry.Problem()
			}
			return err
		}
		if skel, err = core.NewProblem(db, queries, nil); err == nil {
			tuples = float64(skel.TotalViewSize())
		}
		return err
	})
	if entry != nil {
		defer reg.Release(entry)
	}
	step("specialize", func() (err error) {
		p, err = skel.Specialize(delta)
		return err
	})
	step("classify", func() (err error) {
		solver, err = server.PickSolver("auto", p)
		return err
	})
	step("solve", func() (err error) {
		var sctx context.Context
		sctx, stats = core.WithStats(ctx)
		sol, err = solver.Solve(sctx, p)
		return err
	})
	step("evaluate", func() error {
		if !p.Evaluate(sol).Feasible {
			return fmt.Errorf("infeasible solution from %s", solver.Name())
		}
		return nil
	})
	step("bound", func() (err error) {
		if !p.IsKeyPreserving() {
			return nil
		}
		if entry != nil {
			_, _, err = entry.DualBound(p, session.DefaultMaxBoundCerts)
		} else {
			_, err = core.DualBound(p)
		}
		return err
	})
	return tuples, float64(stats.Snapshot().NodesExpanded), err
}

// writeSpans writes every span of a traced run as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
