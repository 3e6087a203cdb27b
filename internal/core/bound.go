package core

import (
	"context"
	"sync"
)

// DualBound computes a lower bound on the optimal (weighted) view
// side-effect without solving the problem: it runs the dual-raising phase
// of the Section IV.C primal-dual scheme and returns Σ v_r over the
// requested view tuples. The duals are feasible for the aggregated LP of
// the paper (constraints (6)–(10)), whose optimum lower-bounds the true
// optimum, so
//
//	DualBound(p) ≤ OPT_LP ≤ OPT.
//
// The bound lets experiments report optimality gaps on instances too large
// for the exact solvers. Requires key-preserving queries.
func DualBound(p *Problem) (float64, error) {
	if err := requireKeyPreserving(p, "dual-bound"); err != nil {
		return 0, err
	}
	lp := buildDualLP(&p.rq, nil)
	load := make([]float64, len(lp.capacity))
	total := 0.0
	for _, r := range lp.reqs {
		total += lp.raise(r.path, load)
	}
	return total, nil
}

// Portfolio runs several solvers and returns the feasible solution with
// the smallest evaluated side-effect (ties broken by fewer deletions).
// Solvers that error (precondition failures, size bounds) are skipped; an
// error is returned only when every solver fails.
//
// With Parallel set, the members race concurrently: each member gets its
// own cancellable context and a private child Stats (merged into the
// caller's Stats after the race, so per-member search counters and
// restart boundaries stay honest), and they are checked against one
// proven lower bound (core.DualBound on key-preserving instances, the
// trivial 0 otherwise) — a member whose feasible objective reaches it is
// certainly optimal, so the race cancels the remaining members instead
// of letting them run to completion. The sequential mode applies the same
// proof to skip members that can no longer improve the result. The race
// (winner, cancelled losers and every member's private counters) goes to
// the solve's Stats, where Stats.Race reads it.
type Portfolio struct {
	// Solvers to run; nil means ApproxSolvers(). Production code always
	// races ApproxSolvers; the field exists so a test can substitute
	// fake members.
	Solvers []Solver
	// Parallel races the members concurrently.
	Parallel bool
}

// Name implements Solver.
func (pf *Portfolio) Name() string {
	if pf.Parallel {
		return "portfolio-parallel"
	}
	return "portfolio"
}

// memberOutcome is one member's result plus its evaluation, computed once
// in the member goroutine so the proof check and the final selection
// share the work.
type memberOutcome struct {
	// sol is the member's effective solution: the returned one, or the
	// incumbent its interruption error carried.
	sol *Solution
	err error
	rep Report
	// feasible marks sol as a feasible solution (rep is then valid).
	feasible bool
	// skipped marks a member never launched (sequential early exit).
	skipped bool
	stats   *Stats
}

// classify renders the member's outcome for race telemetry. parentDone
// distinguishes a caller interruption from a race cancellation.
func (o *memberOutcome) classify(parentDone bool) string {
	switch {
	case o.skipped:
		return "skipped"
	case o.err == nil:
		return "ok"
	case InterruptCause(o.err) != "" && !parentDone:
		return "cancelled"
	case InterruptCause(o.err) != "":
		return "interrupted"
	default:
		return "error"
	}
}

// Solve implements Solver. Cancellation degrades gracefully: a member
// interrupted mid-search contributes the incumbent its *Interrupted error
// carries, and as long as any member (finished or interrupted) produced a
// feasible solution the portfolio returns the best of them with no error.
// Only when the context fires before any feasible solution exists does the
// portfolio return the interruption itself.
func (pf *Portfolio) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	solvers := pf.Solvers
	if solvers == nil {
		solvers = ApproxSolvers()
	}
	st := StatsFrom(ctx)

	// A proven lower bound on the optimal side-effect: the LP-dual
	// certificate when the instance admits it, else the trivial 0
	// (side-effects are nonnegative) — an objective of 0 still proves
	// optimality and ends the race early.
	lower := 0.0
	if p.IsKeyPreserving() {
		if lb, err := DualBound(p); err == nil {
			lower = lb
			st.ObserveLowerBound(lb)
		}
	}

	outcomes := make([]memberOutcome, len(solvers))
	provenIdx := -1
	cancelledLosers := 0

	// evaluate fills the outcome's effective solution and report, and
	// reports whether it proves optimality against the lower bound.
	evaluate := func(o *memberOutcome) (proven bool) {
		if o.err != nil {
			o.sol, _ = Best(o.err)
		}
		if o.sol == nil {
			return false
		}
		o.rep = p.Evaluate(o.sol)
		o.feasible = o.rep.Feasible
		return o.feasible && provenOptimal(o.rep.SideEffect, lower)
	}

	if pf.Parallel {
		var (
			mu       sync.Mutex
			wg       sync.WaitGroup
			finished = make([]bool, len(solvers))
			cancels  = make([]context.CancelFunc, len(solvers))
		)
		// Every member context exists before any member runs: a fast member
		// may win the race and walk cancels while later members are still
		// being spawned.
		memberCtxs := make([]context.Context, len(solvers))
		for i := range solvers {
			st.Restart()
			// Child inherits the progress hook, so member incumbents stream
			// live while per-member counters stay private.
			child := st.Child()
			outcomes[i].stats = child
			memberCtx, cancel := context.WithCancel(ctx)
			cancels[i] = cancel
			memberCtxs[i] = withStatsValue(memberCtx, child)
		}
		for i, s := range solvers {
			st.emitProgress(ProgressEvent{Kind: ProgressRaceMemberStart, Member: s.Name()})
			wg.Add(1)
			go func(memberCtx context.Context, i int, s Solver) {
				defer wg.Done()
				o := &outcomes[i]
				o.sol, o.err = s.Solve(memberCtx, p)
				proven := evaluate(o)
				st.emitProgress(memberDoneEvent(s.Name(), o, ctx.Err() != nil))
				mu.Lock()
				finished[i] = true
				if proven && provenIdx == -1 {
					provenIdx = i
					for j := range cancels {
						if j != i && !finished[j] {
							cancelledLosers++
							cancels[j]()
						}
					}
				}
				mu.Unlock()
			}(memberCtxs[i], i, s)
		}
		wg.Wait()
		for _, cancel := range cancels {
			cancel()
		}
	} else {
		for i, s := range solvers {
			if provenIdx != -1 {
				outcomes[i].skipped = true
				cancelledLosers++
				st.emitProgress(memberDoneEvent(s.Name(), &outcomes[i], false))
				continue
			}
			st.Restart()
			child := st.Child()
			outcomes[i].stats = child
			o := &outcomes[i]
			st.emitProgress(ProgressEvent{Kind: ProgressRaceMemberStart, Member: s.Name()})
			o.sol, o.err = s.Solve(withStatsValue(ctx, child), p)
			if evaluate(o) {
				provenIdx = i
			}
			st.emitProgress(memberDoneEvent(s.Name(), o, ctx.Err() != nil))
		}
	}

	// Merge every member's private counters into the caller's Stats; the
	// race is over, so the merge sees settled numbers.
	for i := range outcomes {
		st.Merge(outcomes[i].stats)
	}

	best := -1
	var bestRep Report
	var firstErr error
	for i := range outcomes {
		o := &outcomes[i]
		if !o.feasible {
			if o.err != nil && o.sol == nil && firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if best == -1 ||
			o.rep.SideEffect < bestRep.SideEffect ||
			(o.rep.SideEffect == bestRep.SideEffect && o.rep.DeletedCount < bestRep.DeletedCount) {
			best, bestRep = i, o.rep
		}
	}
	if provenIdx != -1 {
		// The proof fired on the first member to reach the lower bound; it
		// cannot be beaten, so it is the winner even if another member tied.
		best, bestRep = provenIdx, outcomes[provenIdx].rep
	}
	pf.recordRace(ctx, solvers, outcomes, best, provenIdx != -1, cancelledLosers)
	if best == -1 {
		if err := checkCtx(ctx, pf.Name(), nil); err != nil {
			return nil, err
		}
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, ErrInfeasibleRestriction
	}
	return outcomes[best].sol, nil
}

// memberDoneEvent renders one race member's finish (or skip) as a live
// progress event, carrying the feasible objective when it produced one.
func memberDoneEvent(name string, o *memberOutcome, parentDone bool) ProgressEvent {
	ev := ProgressEvent{Kind: ProgressRaceMemberDone, Member: name, Outcome: o.classify(parentDone)}
	if o.feasible {
		ev.Objective = o.rep.SideEffect
		ev.Deleted = o.rep.DeletedCount
	}
	return ev
}

// recordRace records the race in the solve's Stats, when it has one.
func (pf *Portfolio) recordRace(ctx context.Context, solvers []Solver, outcomes []memberOutcome, winner int, proven bool, cancelledLosers int) {
	st := StatsFrom(ctx)
	if st == nil {
		return
	}
	parentDone := ctx.Err() != nil
	snap := RaceSnapshot{
		Proven:          proven,
		CancelledLosers: cancelledLosers,
		Members:         make([]MemberResult, len(solvers)),
	}
	for i, s := range solvers {
		snap.Members[i] = MemberResult{
			Solver:  s.Name(),
			Outcome: outcomes[i].classify(parentDone),
			Winner:  i == winner,
			Stats:   outcomes[i].stats.Snapshot(),
		}
	}
	if winner >= 0 {
		snap.Winner = solvers[winner].Name()
	}
	st.recordRace(snap)
}
