package core

import (
	"context"
	"errors"
	"fmt"
)

// Cooperative cancellation for the solver suite. The paper's Table IV
// hardness results mean several solvers run exponential searches; in a
// serving context those searches must stop when the caller's deadline
// expires or the client goes away. Every solver polls its context at
// checkpoints in its hot loop and, when the context is done, returns an
// *Interrupted error that records how far it got — including the best
// feasible solution found so far, when the algorithm maintains one — so
// callers can degrade gracefully instead of discarding the work.

// Interruption causes. Interrupted unwraps to exactly one of these (plus
// the underlying context error), so callers can distinguish a caller
// cancel (client disconnect) from an expired deadline with errors.Is.
var (
	// ErrCanceled reports that the solve's context was canceled.
	ErrCanceled = errors.New("core: solve canceled")
	// ErrDeadline reports that the solve's context deadline expired.
	ErrDeadline = errors.New("core: solve deadline exceeded")
)

// Interrupted is returned by solvers that stopped early because their
// context was done. It satisfies errors.Is for ErrCanceled or ErrDeadline
// (whichever applies) and for the context's own error, and carries the
// solver's incumbent when it had one.
type Interrupted struct {
	// Solver is the Name() of the interrupted solver.
	Solver string
	// Incumbent is the best feasible solution found before the
	// interruption, or nil when the solver had none yet. Anytime solvers
	// (BruteForce, RedBlueExact, SourceExact, LocalSearch, Portfolio, the
	// balanced variants) populate it; constructive ones (Greedy,
	// PrimalDual) cannot.
	Incumbent *Solution
	kind      error // ErrCanceled or ErrDeadline
	cause     error // the context's error
}

// Error implements error.
func (e *Interrupted) Error() string {
	state := "no partial solution"
	if e.Incumbent != nil {
		state = fmt.Sprintf("incumbent with %d deletions", len(e.Incumbent.Deleted))
	}
	return fmt.Sprintf("%v (solver %s, %s)", e.kind, e.Solver, state)
}

// Unwrap exposes both the sentinel and the context error to errors.Is.
func (e *Interrupted) Unwrap() []error { return []error{e.kind, e.cause} }

// Best extracts the incumbent solution carried by an interruption error.
// It reports false when err is not an *Interrupted (directly or wrapped)
// or carries no incumbent.
func Best(err error) (*Solution, bool) {
	var ie *Interrupted
	if errors.As(err, &ie) && ie.Incumbent != nil {
		return ie.Incumbent, true
	}
	return nil, false
}

// interruption builds the Interrupted for a done context.
func interruption(ctx context.Context, solver string, incumbent *Solution) error {
	cause := ctx.Err()
	kind := ErrCanceled
	if errors.Is(cause, context.DeadlineExceeded) {
		kind = ErrDeadline
	}
	return &Interrupted{Solver: solver, Incumbent: incumbent, kind: kind, cause: cause}
}

// checkCtx is the solvers' checkpoint: nil while the context is live, the
// typed interruption once it is done. incumbent may be nil.
func checkCtx(ctx context.Context, solver string, incumbent *Solution) error {
	select {
	case <-ctx.Done():
		return interruption(ctx, solver, incumbent)
	default:
		return nil
	}
}

// isCtxErr reports whether err is (or wraps) a context error, i.e. came
// from an interrupted sub-search rather than a genuine solver failure.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// checkEvery is how many iterations tight enumeration loops run between
// checkpoints; polling a channel every iteration would dominate the loop
// body for cheap iterations like brute-force mask scans.
const checkEvery = 1024
