package core

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

// provenOptimal reports whether a feasible objective reaches the proven
// lower bound on the optimum, which makes it certainly optimal.
func provenOptimal(objective, lower float64) bool {
	return objective <= lower+1e-9
}
