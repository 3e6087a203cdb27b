package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// Race telemetry for the parallel solve engine. A caller that wants to
// observe how a Portfolio race went (which member won, how many losers
// were cancelled early, each member's private search counters) installs a
// *RaceInfo in the solve context with WithRace; Portfolio fills it in.
// Solves that never run a portfolio leave it empty. The server exports
// the delprop_parallel_* metric family from it (docs/OBSERVABILITY.md).

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

// RaceInfo collects race telemetry for one solve. All methods are
// nil-safe and safe for concurrent use, mirroring Stats.
//
//delprop:nilsafe
type RaceInfo struct {
	mu   sync.Mutex
	ran  bool         //delprop:guardedby mu
	snap RaceSnapshot //delprop:guardedby mu
}

// record installs a finished race. Last race wins (a portfolio nested in
// another solver overwrites; in practice there is one race per solve).
func (r *RaceInfo) record(snap RaceSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ran = true
	r.snap = snap
	r.mu.Unlock()
}

// Ran reports whether a portfolio race happened during the solve.
func (r *RaceInfo) Ran() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ran
}

// Snapshot copies the recorded race (zero value when none ran).
func (r *RaceInfo) Snapshot() RaceSnapshot {
	if r == nil {
		return RaceSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.snap
	out.Members = append([]MemberResult(nil), r.snap.Members...)
	return out
}

// raceKey carries the *RaceInfo through the solve context.
type raceKey struct{}

// WithRace returns a context carrying a fresh RaceInfo, and the RaceInfo
// itself for the caller to read after the solve.
func WithRace(ctx context.Context) (context.Context, *RaceInfo) {
	r := &RaceInfo{}
	return context.WithValue(ctx, raceKey{}, r), r
}

// RaceFrom extracts the solve's RaceInfo from the context, or nil when
// the caller did not ask for race telemetry.
func RaceFrom(ctx context.Context) *RaceInfo {
	r, _ := ctx.Value(raceKey{}).(*RaceInfo)
	return r
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
