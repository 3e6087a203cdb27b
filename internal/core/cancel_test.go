package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/view"
)

// canceledCtx returns a context that is already canceled.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// expiredCtx returns a context whose deadline has already passed.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	t.Cleanup(cancel)
	<-ctx.Done()
	return ctx
}

// TestSolversHonorCanceledContext: every solver in the suite returns the
// typed interruption (not a hang, not a silent success) when its context is
// already canceled at entry.
func TestSolversHonorCanceledContext(t *testing.T) {
	cases := []struct {
		name    string
		solver  Solver
		problem func(t *testing.T) *Problem
	}{
		{"brute-force", &BruteForce{}, fig1Q3Problem},
		{"greedy", &Greedy{}, fig1Q3Problem},
		{"red-blue", &RedBlue{}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"red-blue-exact", &RedBlueExact{}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"primal-dual", &PrimalDual{}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"low-deg", &LowDegTreeTwo{}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"dp-tree", &DPTree{}, func(t *testing.T) *Problem { return pivotProblem(t, 7, 3) }},
		{"single-exact", &SingleTupleExact{}, fig1Q4Problem},
		{"balanced-red-blue", &BalancedRedBlue{}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"balanced-exact", &BalancedRedBlue{Exact: true}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"local-search", &LocalSearch{}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"portfolio", &Portfolio{}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"source-exact", &SourceExact{}, func(t *testing.T) *Problem { return starProblem(t, 7, 3) }},
		{"source-single-query", &SourceSingleQueryExact{}, fig1Q4Problem},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.problem(t)
			done := make(chan struct{})
			var sol *Solution
			var err error
			go func() {
				defer close(done)
				sol, err = tc.solver.Solve(canceledCtx(), p)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("solver ignored a canceled context for 5s")
			}
			if err == nil {
				// A solver may legitimately finish between checkpoints on a
				// tiny instance, but then it must return a real solution.
				if sol == nil {
					t.Fatal("nil solution and nil error")
				}
				return
			}
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want errors.Is ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want errors.Is context.Canceled", err)
			}
		})
	}
}

// TestInterruptedDeadlineKind: an expired deadline surfaces as ErrDeadline,
// distinguishable from a plain cancellation.
func TestInterruptedDeadlineKind(t *testing.T) {
	p := starProblem(t, 3, 3)
	_, err := (&RedBlueExact{}).Solve(expiredCtx(t), p)
	if err == nil {
		t.Fatal("expired context accepted")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want errors.Is ErrDeadline", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v matches both ErrDeadline and ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want errors.Is context.DeadlineExceeded", err)
	}
	var ie *Interrupted
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *Interrupted", err)
	}
	if ie.Solver == "" {
		t.Error("Interrupted.Solver empty")
	}
	if !strings.Contains(err.Error(), ie.Solver) {
		t.Errorf("message %q does not name the solver", err.Error())
	}
}

// TestBruteForceIncumbentUnderDeadline: a brute-force run cut off by a
// deadline mid-enumeration carries its best-so-far feasible solution, and
// the incumbent evaluates as feasible.
func TestBruteForceIncumbentUnderDeadline(t *testing.T) {
	p := fig1Q3Problem(t)
	// A deadline short enough to expire during enumeration is timing
	// dependent; instead cancel after the first checkpoint has had a chance
	// to record an incumbent by running with an already-expired context but
	// a solver that seeds its incumbent from the full-deletion fallback.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&BruteForce{}).Solve(ctx, p)
	if err == nil {
		t.Skip("instance solved before the first checkpoint")
	}
	// The incumbent is optional at mask 0; what must hold is the typed
	// error and, when an incumbent exists, its feasibility.
	if sol, ok := Best(err); ok {
		rep := p.Evaluate(sol)
		if !rep.Feasible {
			t.Errorf("incumbent infeasible: %v", sol)
		}
	}
}

// TestSourceExactIncumbentUnderInterruption: a SourceExact run stopped
// after its first checkpoint returns *Interrupted carrying a feasible
// incumbent. Twelve requested view tuples with disjoint two-tuple paths
// make the search expand about 2^13 nodes; the context is canceled when
// the first cover is found, so the checkpoint at node checkEvery stops it.
func TestSourceExactIncumbentUnderInterruption(t *testing.T) {
	db := relation.NewInstance(
		relation.MustSchema("R", []string{"a", "b"}, []int{0}),
		relation.MustSchema("S", []string{"b", "c"}, []int{0}),
	)
	for i := 0; i < 12; i++ {
		db.MustInsert("R", fmt.Sprint("a", i), fmt.Sprint("b", i))
		db.MustInsert("S", fmt.Sprint("b", i), fmt.Sprint("c", i))
	}
	q := cq.MustParse("Q(a, b, c) :- R(a, b), S(b, c)")
	p, err := NewProblem(db, []*cq.Query{q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := view.NewDeletion()
	for _, ans := range p.Views[0].Result.Answers() {
		all.Add(view.TupleRef{View: 0, Tuple: ans.Tuple})
	}
	p = respecialize(t, p, all)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx, st := WithStats(ctx)
	st.SetProgress(func(ev ProgressEvent) {
		if ev.Kind == ProgressIncumbent {
			cancel()
		}
	})
	_, err = (&SourceExact{}).Solve(ctx, p)
	var ie *Interrupted
	if !errors.As(err, &ie) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want a canceled *Interrupted", err)
	}
	if nodes := st.Snapshot().NodesExpanded; nodes < checkEvery {
		t.Fatalf("stopped after %d nodes, before the first checkpoint", nodes)
	}
	sol, ok := Best(err)
	if !ok {
		t.Fatal("interrupted after finding a cover but carries no incumbent")
	}
	if cost, feasible := p.SourceSideEffect(sol); !feasible || cost != 12 {
		t.Errorf("incumbent %s: cost %v feasible=%v, want the first cover (12, feasible)", sol, cost, feasible)
	}
}

// TestLocalSearchIncumbentIsFeasible: local search is anytime — an
// interruption mid-climb must carry the current (feasible) solution.
func TestLocalSearchIncumbentIsFeasible(t *testing.T) {
	p := starProblem(t, 11, 4)
	ls := &LocalSearch{}
	// Run once uncancelled to ensure the instance is feasible at all.
	if _, err := ls.Solve(context.Background(), p); err != nil {
		t.Skipf("instance not solvable: %v", err)
	}
	// Now cancel immediately: either the inner constructive phase was hit
	// (no incumbent) or the climb was interrupted (feasible incumbent).
	cancelCtx, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err := ls.Solve(cancelCtx, p)
	if err == nil {
		return // finished before the first checkpoint; fine
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if sol, ok := Best(err); ok {
		if rep := p.Evaluate(sol); !rep.Feasible {
			t.Errorf("local-search incumbent infeasible: %v", sol)
		}
	}
}

// TestPortfolioGracefulDegradation: when the context expires but at least
// one member produced a feasible solution (via incumbent or completion),
// Portfolio returns it with a nil error rather than failing the request.
func TestPortfolioGracefulDegradation(t *testing.T) {
	p := starProblem(t, 13, 3)
	// Generous deadline: members complete, portfolio returns best.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sol, err := (&Portfolio{}).Solve(ctx, p)
	if err != nil {
		t.Fatalf("portfolio under generous deadline: %v", err)
	}
	if rep := p.Evaluate(sol); !rep.Feasible {
		t.Errorf("portfolio solution infeasible")
	}
}

// TestResilienceHonorsContext: the resilience hitting-set search stops on
// cancellation with the typed error.
func TestResilienceHonorsContext(t *testing.T) {
	p := fig1Q3Problem(t)
	q := p.Queries[0]
	_, _, err := Resilience(canceledCtx(), q, p.DB, 24)
	if err == nil {
		t.Skip("resilience finished before the first checkpoint")
	}
	if !errors.Is(err, ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a cancellation error", err)
	}
}

// TestFaultySolverModes: the fault-injection solver behaves as documented —
// it is the contract the server containment tests rely on.
func TestFaultySolverModes(t *testing.T) {
	p := fig1Q3Problem(t)

	t.Run("block returns on cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := (&Faulty{Mode: FaultBlock}).Solve(ctx, p)
			done <- err
		}()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("faulty-block did not return after cancel")
		}
	})

	t.Run("ignore-ctx outlives its context but not its stall", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		start := time.Now()
		sol, err := (&Faulty{Mode: FaultIgnoreCtx, Stall: 100 * time.Millisecond}).Solve(ctx, p)
		if err != nil || sol == nil {
			t.Fatalf("Solve = %v, %v", sol, err)
		}
		if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
			t.Errorf("returned after %v; an ignore-ctx solver must outlive its 1ms deadline", elapsed)
		}
	})

	t.Run("panic", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("faulty-panic did not panic")
			}
		}()
		_, _ = (&Faulty{Mode: FaultPanic}).Solve(context.Background(), p)
	})
}

// TestSolverRegistry: names resolve, unknown names error helpfully, and
// registration mounts new solvers.
func TestSolverRegistry(t *testing.T) {
	for _, name := range []string{"greedy", "red-blue", "brute-force", "portfolio", "local-search"} {
		s, err := NewSolver(name)
		if err != nil {
			t.Fatalf("NewSolver(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("NewSolver(%q) = nil", name)
		}
	}
	if _, err := NewSolver("no-such-solver"); err == nil {
		t.Fatal("unknown solver accepted")
	} else if !strings.Contains(err.Error(), "greedy") {
		t.Errorf("unknown-solver error %q does not list known names", err)
	}
	RegisterSolver("cancel-test-faulty", func() Solver { return &Faulty{Mode: FaultBlock} })
	s, err := NewSolver("cancel-test-faulty")
	if err != nil || s.Name() != "faulty-block" {
		t.Fatalf("registered solver: %v, %v", s, err)
	}
	found := false
	for _, n := range SolverNames() {
		if n == "cancel-test-faulty" {
			found = true
		}
	}
	if !found {
		t.Error("SolverNames missing registered solver")
	}
}

// TestBestOnForeignError: Best must not misfire on unrelated errors.
func TestBestOnForeignError(t *testing.T) {
	if _, ok := Best(errors.New("boom")); ok {
		t.Error("Best extracted an incumbent from a foreign error")
	}
	if _, ok := Best(nil); ok {
		t.Error("Best extracted an incumbent from nil")
	}
}
