package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"delprop/internal/view"
	"delprop/internal/workload"
)

// allDeltaProblem marks every view tuple of the Fig.1 Q4 instance as
// requested: with nothing preserved the optimal side-effect is 0, so the
// trivial lower bound proves any feasible solution optimal — the setup
// that makes the portfolio's early-cancellation proof fire
// deterministically.
func allDeltaProblem(t *testing.T) *Problem {
	t.Helper()
	p := fig1Q4Problem(t)
	all := view.NewDeletion(p.DeltaRefs()...)
	for _, v := range p.Views {
		for _, ans := range v.Result.Answers() {
			all.Add(view.TupleRef{View: v.Index, Tuple: ans.Tuple})
		}
	}
	return respecialize(t, p, all)
}

// TestPortfolioParallelPerMemberStats is the regression test for the
// shared-Stats garbling: under Parallel each member must report into its
// own child Stats, the parent must see exactly one Restart per member,
// and the race telemetry must expose honest per-member counters.
func TestPortfolioParallelPerMemberStats(t *testing.T) {
	p := fig1Q4Problem(t)
	ctx, st := WithStats(context.Background())
	pf := &Portfolio{Solvers: []Solver{&Greedy{}, &RedBlue{}}, Parallel: true}
	if _, err := pf.Solve(ctx, p); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Restarts != 2 {
		t.Errorf("parent restarts = %d, want 2 (one per member)", snap.Restarts)
	}
	rs := st.Race()
	if rs == nil {
		t.Fatal("race telemetry not recorded")
	}
	if len(rs.Members) != 2 {
		t.Fatalf("members = %d, want 2", len(rs.Members))
	}
	winners := 0
	var nodes, checkpoints int64
	for _, m := range rs.Members {
		if m.Winner {
			winners++
		}
		if m.Stats.Restarts != 0 {
			t.Errorf("member %s restarts = %d, want 0 (parent owns the restart tick)", m.Solver, m.Stats.Restarts)
		}
		if m.Outcome != "ok" {
			t.Errorf("member %s outcome = %q, want ok", m.Solver, m.Outcome)
		}
		nodes += m.Stats.NodesExpanded
		checkpoints += m.Stats.Checkpoints
	}
	if winners != 1 {
		t.Errorf("winners = %d, want exactly 1", winners)
	}
	if rs.Winner == "" {
		t.Error("race snapshot has no winner name")
	}
	// The parent's aggregate counters are exactly the sum of the members'
	// private ones: nothing was double-counted or lost in the merge.
	if snap.NodesExpanded != nodes {
		t.Errorf("parent nodes = %d, members sum to %d", snap.NodesExpanded, nodes)
	}
	if snap.Checkpoints != checkpoints {
		t.Errorf("parent checkpoints = %d, members sum to %d", snap.Checkpoints, checkpoints)
	}
	for _, m := range rs.Members {
		if m.Solver == "greedy" && m.Stats.NodesExpanded == 0 {
			t.Error("greedy member reported zero probes")
		}
	}
}

// TestPortfolioParallelCancelsLosersOnProof: a member that proves its
// solution optimal must cancel the still-running members instead of
// waiting for them. The blocking member would otherwise park until the
// 5s backstop deadline.
func TestPortfolioParallelCancelsLosersOnProof(t *testing.T) {
	p := allDeltaProblem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ctx, st := WithStats(ctx)
	pf := &Portfolio{Solvers: []Solver{&Greedy{}, &Faulty{Mode: FaultBlock}}, Parallel: true}
	start := time.Now()
	sol, err := pf.Solve(ctx, p)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if rep := p.Evaluate(sol); !rep.Feasible || rep.SideEffect != 0 {
		t.Fatalf("report = %+v, want feasible side-effect 0", rep)
	}
	rs := st.Race()
	if !rs.Proven {
		t.Error("proof did not fire despite side-effect 0 == trivial bound")
	}
	if rs.Winner != "greedy" {
		t.Errorf("winner = %q, want greedy", rs.Winner)
	}
	if rs.CancelledLosers != 1 {
		t.Errorf("cancelled losers = %d, want 1", rs.CancelledLosers)
	}
	if got := rs.Members[1].Outcome; got != "cancelled" {
		t.Errorf("blocked member outcome = %q, want cancelled", got)
	}
	if elapsed > 4*time.Second {
		t.Errorf("race took %v; the blocked loser was not cancelled early", elapsed)
	}
}

// TestPortfolioSequentialSkipsAfterProof: the sequential path applies the
// same proof — members after a proven-optimal one never launch.
func TestPortfolioSequentialSkipsAfterProof(t *testing.T) {
	p := allDeltaProblem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ctx, st := WithStats(ctx)
	pf := &Portfolio{Solvers: []Solver{&Greedy{}, &Faulty{Mode: FaultBlock}}}
	sol, err := pf.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep := p.Evaluate(sol); !rep.Feasible || rep.SideEffect != 0 {
		t.Fatalf("report = %+v", rep)
	}
	rs := st.Race()
	if !rs.Proven || rs.Winner != "greedy" {
		t.Errorf("snapshot = %+v, want proven greedy win", rs)
	}
	if got := rs.Members[1].Outcome; got != "skipped" {
		t.Errorf("second member outcome = %q, want skipped", got)
	}
	if rs.CancelledLosers != 1 {
		t.Errorf("cancelled losers = %d, want 1", rs.CancelledLosers)
	}
}

// TestPortfolioParallelName: the parallel portfolio registers and reports
// under its own name.
func TestPortfolioParallelName(t *testing.T) {
	if got := (&Portfolio{Parallel: true}).Name(); got != "portfolio-parallel" {
		t.Errorf("Name = %q", got)
	}
	s, err := NewSolver("portfolio-parallel")
	if err != nil {
		t.Fatal(err)
	}
	if pf, ok := s.(*Portfolio); !ok || !pf.Parallel {
		t.Errorf("registry returned %#v", s)
	}
}

// TestGreedyParallelMatchesSerial: the sharded scoring loop must return
// byte-identical solutions to the serial solver on every workload family
// (run under -race in CI).
func TestGreedyParallelMatchesSerial(t *testing.T) {
	makers := map[string]func(*testing.T, int64, int) *Problem{
		"star":  starProblem,
		"chain": chainProblem,
		"pivot": pivotProblem,
	}
	for name, mk := range makers {
		for seed := int64(1); seed <= 5; seed++ {
			p := mk(t, seed, 3)
			if p.DeltaLen() == 0 {
				continue
			}
			serial, err := (&Greedy{}).Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s/%d: serial: %v", name, seed, err)
			}
			for _, workers := range []int{2, 3, 4} {
				par, err := (&Greedy{Workers: workers}).Solve(context.Background(), p)
				if err != nil {
					t.Fatalf("%s/%d w=%d: %v", name, seed, workers, err)
				}
				if got, want := par.String(), serial.String(); got != want {
					t.Errorf("%s/%d w=%d: parallel %s != serial %s", name, seed, workers, got, want)
				}
			}
		}
	}
}

// TestGreedyParallelNodeCounts: sharding must not change how many
// candidates get probed — the node counter is workload telemetry the
// bench harness compares across configurations.
func TestGreedyParallelNodeCounts(t *testing.T) {
	p := starProblem(t, 2, 3)
	if p.DeltaLen() == 0 {
		t.Skip("empty deletion")
	}
	count := func(workers int) int64 {
		ctx, st := WithStats(context.Background())
		if _, err := (&Greedy{Workers: workers}).Solve(ctx, p); err != nil {
			t.Fatal(err)
		}
		return st.Snapshot().NodesExpanded
	}
	serial := count(1)
	for _, w := range []int{2, 4} {
		if got := count(w); got != serial {
			t.Errorf("workers=%d probes %d candidates, serial probes %d", w, got, serial)
		}
	}
}

func TestGreedyName(t *testing.T) {
	if got := (&Greedy{}).Name(); got != "greedy" {
		t.Errorf("Name = %q", got)
	}
	if got := (&Greedy{Workers: 4}).Name(); got != "greedy-parallel" {
		t.Errorf("Name = %q", got)
	}
	if got := (&Greedy{Workers: 1}).Name(); got != "greedy" {
		t.Errorf("Name = %q", got)
	}
}

// TestShardBounds: shards are contiguous, ascending, and cover [0, n)
// exactly once.
func TestShardBounds(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 7, 16, 100} {
		for nw := 1; nw <= 6; nw++ {
			next := 0
			for w := 0; w < nw; w++ {
				lo, hi := shardBounds(n, nw, w)
				if lo != next {
					t.Fatalf("n=%d nw=%d w=%d: lo=%d, want %d", n, nw, w, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d nw=%d w=%d: hi=%d < lo=%d", n, nw, w, hi, lo)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d nw=%d: shards cover [0,%d), want [0,%d)", n, nw, next, n)
			}
		}
	}
}

// greedySlowProblem builds a star instance big enough that a greedy solve
// runs several times longer than the 5 ms after which the test below
// cancels it (about 45 ms serial on a 2-CPU VM with the slice-backed
// maintainer), so a prompt return proves the checkpoints work.
func greedySlowProblem(t *testing.T) *Problem {
	t.Helper()
	w := workload.Star(workload.StarConfig{
		Seed: 7, Relations: 6, HubValues: 4, RowsPerRelation: 40,
		Queries: 4, AtomsPerQuery: 3,
	})
	p, err := NewProblem(w.DB, w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	p = respecialize(t, p, workload.SampleDeletion(p.Views, 32, 11))
	if p.DeltaLen() == 0 {
		t.Fatal("slow problem sampled an empty deletion")
	}
	return p
}

// TestGreedyMidRoundCancelPrompt: cancelling in the middle of a scoring
// round must interrupt within a few probes, not at the next round
// boundary. Covers serial and parallel scoring.
func TestGreedyMidRoundCancelPrompt(t *testing.T) {
	p := greedySlowProblem(t)
	for _, tc := range []struct {
		name   string
		solver *Greedy
	}{
		{"incremental", &Greedy{}},
		{"parallel", &Greedy{Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(5*time.Millisecond, cancel)
			start := time.Now()
			_, err := tc.solver.Solve(ctx, p)
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled (solve finished in %v — instance too small to cancel mid-round?)", err, elapsed)
			}
			if elapsed > 2*time.Second {
				t.Errorf("cancel took %v to take effect", elapsed)
			}
		})
	}
}

// TestSharedBound: a feasible objective proves optimality only at (or
// below) the lower bound.
func TestSharedBound(t *testing.T) {
	if provenOptimal(5, 2) {
		t.Error("5 proven optimal against bound 2")
	}
	if provenOptimal(7, 2) {
		t.Error("worse objective proven")
	}
	if !provenOptimal(2, 2) {
		t.Error("objective matching the bound not proven")
	}
}

// TestStatsMerge: counters add, incumbents append, the strongest lower
// bound wins, and the objective does not leak across the merge.
func TestStatsMerge(t *testing.T) {
	parent := &Stats{}
	parent.AddNodes(10)
	parent.ObserveLowerBound(1)

	child := &Stats{}
	child.AddNodes(5)
	child.AddPruned(3)
	child.Checkpoint()
	child.Restart()
	child.Incumbent(4, 2)
	child.ObserveLowerBound(2.5)
	child.SetObjective(4)

	parent.Merge(child)
	snap := parent.Snapshot()
	if snap.NodesExpanded != 15 || snap.BranchesPruned != 3 || snap.Checkpoints != 1 || snap.Restarts != 1 {
		t.Errorf("counters = %+v", snap)
	}
	if snap.IncumbentUpdates != 1 {
		t.Errorf("incumbents = %d, want 1", snap.IncumbentUpdates)
	}
	if snap.LowerBound == nil || *snap.LowerBound != 2.5 {
		t.Errorf("lower bound = %v, want 2.5", snap.LowerBound)
	}
	if snap.Objective != nil {
		t.Errorf("objective leaked through merge: %v", *snap.Objective)
	}
	// Nil-safety both ways.
	var nilStats *Stats
	nilStats.Merge(child)
	parent.Merge(nil)
}
