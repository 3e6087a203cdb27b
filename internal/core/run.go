package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"delprop/internal/telemetry"
)

// RunHooks are what a front end varies around Run — how it observes the
// solve, never what is computed; each is optional.
type RunHooks struct {
	// Phase opens a lifecycle phase (telemetry.PhaseSolve,
	// telemetry.PhaseEvaluate) and returns the closure that ends it.
	Phase func(name string) func()
	// Progress receives live progress events while the solve runs.
	Progress ProgressFunc
}

// RunResult is one solve's answer. Stats is set on every return,
// failures included, and Race whenever a portfolio raced.
type RunResult struct {
	Solution *Solution
	Report   Report
	// Partial marks an interrupted solver's incumbent; Interrupted says
	// why it stopped ("deadline" or "canceled").
	Partial     bool
	Interrupted string
	LowerBound  *float64 // DualBound's certificate, on key-preserving problems
	Stats       StatsSnapshot
	Race        *RaceSnapshot
}

// PanicError is a panic recovered from a solver goroutine.
type PanicError struct {
	Solver string
	Value  any
	Stack  []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("solver %s panicked: %v", e.Solver, e.Value) }

// UnstoppableError reports a solver abandoned because it ignored its
// context for the whole grace period after the deadline.
type UnstoppableError struct {
	Solver  string
	Timeout time.Duration
}

// Error implements error.
func (e *UnstoppableError) Error() string {
	return fmt.Sprintf("solver %s did not stop within the %v deadline", e.Solver, e.Timeout)
}

// Run is the one solve path of every front end — delpropd's cold, batch
// and warm solves and the delprop CLI. It solves p with solver under ctx,
// bounded by timeout when positive, in a supervised goroutine: a panic
// becomes a *PanicError, and a solver still running min(timeout/2, 1s)
// after ctx is done is abandoned with an *UnstoppableError (leaked
// deliberately: there is no safe way to kill it). An interruption that
// carries an incumbent yields a partial answer. The answer is evaluated
// and, on key-preserving problems, certified by DualBound.
func Run(ctx context.Context, solver Solver, p *Problem, timeout time.Duration, hooks RunHooks) (*RunResult, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ctx, stats := WithStats(ctx)
	ctx, race := WithRace(ctx)
	stats.SetProgress(hooks.Progress)
	if hooks.Phase == nil {
		hooks.Phase = func(string) func() { return func() {} }
	}
	res := &RunResult{}
	defer func() { // every return carries the final counters
		res.Stats = stats.Snapshot()
		if race.Ran() {
			rs := race.Snapshot()
			res.Race = &rs
		}
	}()

	end := hooks.Phase(telemetry.PhaseSolve)
	sol, err := supervise(ctx, solver, p, timeout)
	end()
	if err != nil {
		inc, ok := Best(err)
		if !ok {
			return res, err
		}
		sol, res.Partial, res.Interrupted = inc, true, InterruptCause(err)
	}

	defer hooks.Phase(telemetry.PhaseEvaluate)()
	res.Solution, res.Report = sol, p.Evaluate(sol)
	if p.IsKeyPreserving() {
		if lb, err := DualBound(p); err == nil {
			res.LowerBound = &lb
			stats.ObserveLowerBound(lb) // keeps a solver's tighter bound
		}
	}
	if res.Report.Feasible {
		stats.SetObjective(res.Report.SideEffect)
	}
	return res, nil
}

// supervise runs solver.Solve in its own goroutine and waits for it at
// most min(timeout/2, 1s) past the end of ctx.
func supervise(ctx context.Context, solver Solver, p *Problem, timeout time.Duration) (*Solution, error) {
	type outcome struct {
		sol *Solution
		err error
	}
	ch := make(chan outcome, 1)
	name := solver.Name() // a panicking Name() surfaces in the caller
	go func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- outcome{err: &PanicError{Solver: name, Value: v, Stack: debug.Stack()}}
			}
		}()
		sol, err := solver.Solve(ctx, p)
		ch <- outcome{sol, err}
	}()
	select {
	case out := <-ch:
		return out.sol, out.err
	case <-ctx.Done():
	}
	grace := time.Second
	if timeout > 0 {
		grace = min(timeout/2, grace)
	}
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.sol, out.err
	case <-timer.C:
		return nil, &UnstoppableError{Solver: name, Timeout: timeout}
	}
}
