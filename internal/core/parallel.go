package core

import (
	"math"
	"sync/atomic"
)

// Race telemetry for the parallel solve engine. Portfolio records how its
// race went (which member won, how many losers were cancelled early, each
// member's private search counters) in the solve's Stats, and Stats.Race
// reads it back; Run returns it as RunResult.Race. Solves that never run
// a portfolio record none. The server exports the delprop_parallel_*
// metric family from it (docs/OBSERVABILITY.md).

// MemberResult is one portfolio member's outcome in a race.
type MemberResult struct {
	// Solver is the member's Name().
	Solver string `json:"solver"`
	// Outcome is "ok" (completed with a solution), "interrupted" (stopped
	// by the caller's context), "cancelled" (stopped early because another
	// member already held a provably optimal solution), or "error".
	Outcome string `json:"outcome"`
	// Winner marks the member whose solution the portfolio returned.
	Winner bool `json:"winner,omitempty"`
	// Stats is the member's private search counters — unpolluted by the
	// other members, unlike the merged parent Stats.
	Stats StatsSnapshot `json:"stats"`
}

// RaceSnapshot is an immutable copy of a finished race, JSON-ready for
// the HTTP response and the CLI.
type RaceSnapshot struct {
	// Winner names the member whose solution was returned.
	Winner string `json:"winner,omitempty"`
	// Proven is set when the winner's objective matched the shared lower
	// bound, i.e. the early-cancellation proof fired.
	Proven bool `json:"proven,omitempty"`
	// CancelledLosers counts members cancelled before completion once the
	// winner's solution was proven optimal.
	CancelledLosers int `json:"cancelledLosers"`
	// Members holds one result per portfolio member, in member order.
	Members []MemberResult `json:"members"`
}

// sharedBound is the racing members' shared view of the objective: a
// proven lower bound on the optimum (fixed before the race starts) and
// the best feasible objective any member has achieved so far (atomic, so
// the race loop can publish without locking). A member whose feasible
// objective reaches the lower bound is provably optimal and the race can
// cancel everyone else.
type sharedBound struct {
	// lower is the proven lower bound on the optimal objective (0 when no
	// certificate is available — still valid for nonnegative objectives).
	lower float64
	// bestBits holds math.Float64bits of the best feasible objective seen
	// so far (+Inf until the first feasible solution lands).
	bestBits atomic.Uint64
}

func newSharedBound(lower float64) *sharedBound {
	b := &sharedBound{lower: lower}
	b.bestBits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// observe publishes a feasible objective and reports whether it proves
// optimality against the lower bound.
func (b *sharedBound) observe(objective float64) (proven bool) {
	// CAS min-publish: retry only while our objective still improves on
	// the published best.
	//lint:ignore solveloop the CAS retry loop needs no checkpoint: every failed CAS means another member published a strictly smaller best, so it exits within len(members) iterations
	for old := b.bestBits.Load(); objective < math.Float64frombits(old); old = b.bestBits.Load() {
		if b.bestBits.CompareAndSwap(old, math.Float64bits(objective)) {
			break
		}
	}
	return objective <= b.lower+1e-9
}
