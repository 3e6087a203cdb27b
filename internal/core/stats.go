package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"delprop/internal/setcover"
)

// Stats collects search-progress counters for one solve. A *Stats is
// carried in the solve context (WithStats / StatsFrom); every solver
// reports into it, so the CLI, the HTTP server and the bench harness all
// see the same numbers next to the Report. All methods are safe for
// concurrent use (Portfolio runs members in parallel against one Stats)
// and nil-safe, so solvers never need to guard on instrumentation being
// absent.
//
//delprop:nilsafe
type Stats struct {
	// nodes counts search nodes expanded: branch-and-bound subtrees,
	// brute-force masks, greedy candidate probes, local-search move
	// probes, primal-dual dual raises.
	nodes atomic.Int64
	// pruned counts branches cut by a bound before expansion.
	pruned atomic.Int64
	// checkpoints counts cooperative cancellation polls.
	checkpoints atomic.Int64
	// restarts counts outer-loop restarts: local-search passes, low-deg
	// τ-sweep iterations, portfolio members launched.
	restarts atomic.Int64

	mu         sync.Mutex
	incumbents []IncumbentEvent //delprop:guardedby mu

	// Solution-quality accounting: the achieved objective of the returned
	// solution and the best proven lower bound on the optimum. Exact
	// solvers report both (ratio 1); approximation solvers report whatever
	// certificate they hold (primal-dual reports its feasible dual value);
	// Run adds its caller's bound (DualBound, or a warm session's cached
	// one), keeping the larger.
	// The ratio objective/lowerBound is the observed approximation quality
	// exported as delprop_solve_quality_ratio.
	hasObjective bool    //delprop:guardedby mu
	objective    float64 //delprop:guardedby mu
	hasLower     bool    //delprop:guardedby mu
	lowerBound   float64 //delprop:guardedby mu

	// race is the portfolio race the solve ran, nil until one finishes.
	// A portfolio records into the Stats its context carries, so a race
	// nested in a member's child Stats stays there.
	race *RaceSnapshot //delprop:guardedby mu

	// progress, when set, receives live ProgressEvents (incumbent
	// installs, lower-bound improvements, race member lifecycle) as they
	// happen — the server wires it to the event bus so /events streams
	// them mid-solve. Install before the solve starts (SetProgress);
	// children created with Child inherit it.
	progress atomic.Pointer[ProgressFunc]
}

// Progress event kinds delivered to a ProgressFunc.
const (
	// ProgressIncumbent: a best-so-far solution improved (Objective,
	// Deleted are set).
	ProgressIncumbent = "incumbent"
	// ProgressLowerBound: a proven lower bound on the optimum improved
	// (Objective carries the bound).
	ProgressLowerBound = "lower_bound"
	// ProgressRaceMemberStart: a portfolio race member launched (Member
	// names its solver).
	ProgressRaceMemberStart = "race_member_start"
	// ProgressRaceMemberDone: a race member finished, was cancelled, or
	// was skipped (Member and Outcome are set; Objective/Deleted carry
	// the member's feasible result when it produced one).
	ProgressRaceMemberDone = "race_member_done"
)

// ProgressEvent is one live solve-progress notification. Fields are set
// per Kind (see the Progress* constants).
type ProgressEvent struct {
	Kind      string
	Objective float64
	Deleted   int
	Member    string
	Outcome   string
}

// ProgressFunc receives live progress events. It runs inline on solver
// hot paths (possibly from several goroutines at once during a race), so
// implementations must be fast, non-blocking and concurrency-safe.
type ProgressFunc func(ProgressEvent)

// SetProgress installs the live progress hook. Call before the solve
// starts; the hook must tolerate concurrent invocation.
func (s *Stats) SetProgress(fn ProgressFunc) {
	if s == nil {
		return
	}
	if fn == nil {
		s.progress.Store(nil)
		return
	}
	s.progress.Store(&fn)
}

// emitProgress delivers one event to the installed hook, if any. Called
// outside the Stats mutex so a hook may snapshot the Stats safely.
func (s *Stats) emitProgress(ev ProgressEvent) {
	if s == nil {
		return
	}
	if fn := s.progress.Load(); fn != nil {
		(*fn)(ev)
	}
}

// Child returns a fresh Stats inheriting the progress hook — Portfolio
// gives each racing member one so per-member counters stay private while
// their incumbent events still stream live. Nil-safe: a nil parent
// yields a detached child.
func (s *Stats) Child() *Stats {
	child := &Stats{}
	if s != nil {
		if fn := s.progress.Load(); fn != nil {
			child.progress.Store(fn)
		}
	}
	return child
}

// IncumbentEvent records one improvement of the best-so-far solution.
type IncumbentEvent struct {
	// At is when the incumbent was installed.
	At time.Time `json:"at"`
	// Objective is the incumbent's objective value (side effect, cover
	// cost, or balanced objective, per solver).
	Objective float64 `json:"objective"`
	// Deleted is |ΔD| of the incumbent.
	Deleted int `json:"deleted"`
}

// AddNodes adds n expanded search nodes.
func (s *Stats) AddNodes(n int64) {
	if s != nil {
		s.nodes.Add(n)
	}
}

// AddPruned adds n bound-pruned branches.
func (s *Stats) AddPruned(n int64) {
	if s != nil {
		s.pruned.Add(n)
	}
}

// Checkpoint ticks one cooperative cancellation poll.
func (s *Stats) Checkpoint() {
	if s != nil {
		s.checkpoints.Add(1)
	}
}

// Restart ticks one outer-loop restart.
func (s *Stats) Restart() {
	if s != nil {
		s.restarts.Add(1)
	}
}

// Incumbent records a best-so-far improvement with its objective value
// and solution size, timestamped now.
func (s *Stats) Incumbent(objective float64, deleted int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.incumbents = append(s.incumbents, IncumbentEvent{At: time.Now(), Objective: objective, Deleted: deleted})
	s.mu.Unlock()
	s.emitProgress(ProgressEvent{Kind: ProgressIncumbent, Objective: objective, Deleted: deleted})
}

// SetObjective records the achieved objective value of the solution the
// solve returned (side effect, cover cost, or balanced objective). The
// last write wins: callers that evaluate the returned solution (Run,
// the bench harness) overwrite whatever the solver reported.
func (s *Stats) SetObjective(v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.hasObjective = true
	s.objective = v
	s.mu.Unlock()
}

// ObserveLowerBound records a proven lower bound on the optimal objective.
// The largest observed bound wins, so several certificates (a solver's
// dual value, the LP DualBound, an exact optimum) compose safely.
func (s *Stats) ObserveLowerBound(v float64) {
	if s == nil {
		return
	}
	s.observeLower(v, true)
}

// observeLower installs the bound, emitting a progress event on
// improvement only when emit is set — Merge folds a child's bound in
// silently because the child's own hook already streamed it live.
func (s *Stats) observeLower(v float64, emit bool) {
	s.mu.Lock()
	improved := !s.hasLower || v > s.lowerBound
	if improved {
		s.hasLower = true
		s.lowerBound = v
	}
	s.mu.Unlock()
	if improved && emit {
		s.emitProgress(ProgressEvent{Kind: ProgressLowerBound, Objective: v})
	}
}

// StatsSnapshot is an immutable copy of the counters, JSON-ready for the
// HTTP response, the CLI -stats flag, and bench output.
type StatsSnapshot struct {
	NodesExpanded    int64            `json:"nodesExpanded"`
	BranchesPruned   int64            `json:"branchesPruned"`
	Checkpoints      int64            `json:"checkpoints"`
	Restarts         int64            `json:"restarts"`
	IncumbentUpdates int64            `json:"incumbentUpdates"`
	Incumbents       []IncumbentEvent `json:"incumbents,omitempty"`
	// Objective is the achieved objective of the returned solution, when
	// recorded (SetObjective).
	Objective *float64 `json:"objective,omitempty"`
	// LowerBound is the best proven lower bound on the optimum, when any
	// certificate was recorded (ObserveLowerBound).
	LowerBound *float64 `json:"lowerBound,omitempty"`
	// QualityRatio is Objective/LowerBound — the observed approximation
	// ratio — when both are recorded and the bound is positive. A zero
	// objective against a zero bound met the bound exactly and reads 1; a
	// positive objective against a zero bound proves nothing and stays
	// unset.
	QualityRatio *float64 `json:"qualityRatio,omitempty"`
}

// recordRace installs a finished portfolio race. The last race wins.
func (s *Stats) recordRace(snap RaceSnapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.race = &snap
	s.mu.Unlock()
}

// Race returns a copy of the recorded portfolio race, or nil when none
// ran.
func (s *Stats) Race() *RaceSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.race == nil {
		return nil
	}
	out := *s.race
	out.Members = append([]MemberResult(nil), s.race.Members...)
	return &out
}

// Snapshot copies the current counters. Safe to call while the solve is
// still running (Run snapshots an abandoned solver mid-flight).
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	s.mu.Lock()
	inc := append([]IncumbentEvent(nil), s.incumbents...)
	snap := StatsSnapshot{
		IncumbentUpdates: int64(len(inc)),
		Incumbents:       inc,
	}
	if s.hasObjective {
		obj := s.objective
		snap.Objective = &obj
	}
	if s.hasLower {
		lb := s.lowerBound
		snap.LowerBound = &lb
	}
	if s.hasObjective && s.hasLower {
		switch {
		case s.lowerBound > 0:
			ratio := s.objective / s.lowerBound
			snap.QualityRatio = &ratio
		case s.objective == 0:
			one := 1.0
			snap.QualityRatio = &one
		}
	}
	s.mu.Unlock()
	snap.NodesExpanded = s.nodes.Load()
	snap.BranchesPruned = s.pruned.Load()
	snap.Checkpoints = s.checkpoints.Load()
	snap.Restarts = s.restarts.Load()
	return snap
}

// Merge folds another solve's counters into s: the atomic counters add,
// the incumbent events append, and the strongest lower-bound certificate
// composes through ObserveLowerBound. The achieved objective does not
// merge — it describes one specific returned solution, which the caller
// picks itself. Portfolio uses Merge to give each racing member a private
// child Stats (so per-member boundaries stay honest) and still report
// aggregate numbers on the parent. Safe to call while o is still being
// written (the snapshot is atomic per counter), but the canonical use is
// after the member finished.
func (s *Stats) Merge(o *Stats) {
	if s == nil || o == nil {
		return
	}
	snap := o.Snapshot()
	s.nodes.Add(snap.NodesExpanded)
	s.pruned.Add(snap.BranchesPruned)
	s.checkpoints.Add(snap.Checkpoints)
	s.restarts.Add(snap.Restarts)
	if len(snap.Incumbents) > 0 {
		s.mu.Lock()
		s.incumbents = append(s.incumbents, snap.Incumbents...)
		s.mu.Unlock()
	}
	if snap.LowerBound != nil {
		s.observeLower(*snap.LowerBound, false)
	}
}

// statsKey carries the *Stats through the solve context.
type statsKey struct{}

// WithStats returns a context carrying a fresh Stats for one solve, and
// the Stats itself for the caller to read after (or during) the solve.
func WithStats(ctx context.Context) (context.Context, *Stats) {
	st := &Stats{}
	return context.WithValue(ctx, statsKey{}, st), st
}

// withStatsValue installs an existing Stats in the context; Portfolio uses
// it to hand each racing member its own child Stats.
func withStatsValue(ctx context.Context, st *Stats) context.Context {
	return context.WithValue(ctx, statsKey{}, st)
}

// StatsFrom extracts the solve's Stats from the context, or nil when the
// caller did not ask for instrumentation. Solvers fetch it once at entry;
// all Stats methods are nil-safe.
func StatsFrom(ctx context.Context) *Stats {
	st, _ := ctx.Value(statsKey{}).(*Stats)
	return st
}

// recorder adapts a possibly-nil *Stats to a setcover.SearchRecorder,
// keeping the recorder interface nil (reporting fully disabled on the hot
// path) when instrumentation is off.
func recorder(st *Stats) setcover.SearchRecorder {
	if st == nil {
		return nil
	}
	return st
}

// Node, Prune and BBIncumbent make *Stats satisfy setcover.SearchRecorder
// without the setcover package importing core: the branch-and-bound
// engines report their progress through that interface.

// Node implements setcover.SearchRecorder.
func (s *Stats) Node(n int64) { s.AddNodes(n) }

// Prune implements setcover.SearchRecorder.
func (s *Stats) Prune(n int64) { s.AddPruned(n) }

// BBIncumbent implements setcover.SearchRecorder.
func (s *Stats) BBIncumbent(cost float64, size int) { s.Incumbent(cost, size) }
