package core

import (
	"context"
	"sync"
	"testing"
)

// collectProgress installs a hook that appends every event under a lock
// and returns the accessor.
func collectProgress(st *Stats) func() []ProgressEvent {
	var mu sync.Mutex
	var evs []ProgressEvent
	st.SetProgress(func(ev ProgressEvent) {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
	})
	return func() []ProgressEvent {
		mu.Lock()
		defer mu.Unlock()
		return append([]ProgressEvent(nil), evs...)
	}
}

func kinds(evs []ProgressEvent) map[string]int {
	m := make(map[string]int)
	for _, ev := range evs {
		m[ev.Kind]++
	}
	return m
}

func TestProgressIncumbentAndLowerBound(t *testing.T) {
	st := &Stats{}
	got := collectProgress(st)

	st.Incumbent(5, 2)
	st.Incumbent(3, 1)
	st.ObserveLowerBound(1)
	st.ObserveLowerBound(2)   // improvement: emits
	st.ObserveLowerBound(1.5) // regression: silent

	evs := got()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(evs), evs)
	}
	if evs[0].Kind != ProgressIncumbent || evs[0].Objective != 5 || evs[0].Deleted != 2 {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if evs[1].Kind != ProgressIncumbent || evs[1].Objective != 3 || evs[1].Deleted != 1 {
		t.Errorf("event 1 = %+v", evs[1])
	}
	if evs[2].Kind != ProgressLowerBound || evs[2].Objective != 1 {
		t.Errorf("event 2 = %+v", evs[2])
	}
	if evs[3].Kind != ProgressLowerBound || evs[3].Objective != 2 {
		t.Errorf("event 3 = %+v", evs[3])
	}
}

func TestProgressNilSafety(t *testing.T) {
	var nilStats *Stats
	nilStats.SetProgress(func(ProgressEvent) { t.Error("hook on nil stats fired") })
	nilStats.Incumbent(1, 1)

	// No hook installed: events vanish without panicking.
	st := &Stats{}
	st.Incumbent(1, 1)
	st.ObserveLowerBound(1)

	// Installing then clearing the hook stops delivery.
	fired := 0
	st.SetProgress(func(ProgressEvent) { fired++ })
	st.Incumbent(0.5, 1)
	st.SetProgress(nil)
	st.Incumbent(0.25, 1)
	if fired != 1 {
		t.Errorf("hook fired %d times, want 1 (cleared after first)", fired)
	}
}

func TestChildInheritsProgressHook(t *testing.T) {
	parent := &Stats{}
	got := collectProgress(parent)

	child := parent.Child()
	child.Incumbent(2, 1)
	child.AddNodes(7)

	evs := got()
	if len(evs) != 1 || evs[0].Kind != ProgressIncumbent || evs[0].Objective != 2 {
		t.Fatalf("child events via parent hook = %+v", evs)
	}
	// Counters stay private to the child until merged.
	if snap := parent.Snapshot(); snap.NodesExpanded != 0 {
		t.Errorf("parent nodes = %d before merge, want 0", snap.NodesExpanded)
	}

	// A nil parent still yields a usable, detached child.
	var nilParent *Stats
	orphan := nilParent.Child()
	orphan.Incumbent(1, 1)
	if snap := orphan.Snapshot(); snap.IncumbentUpdates != 1 {
		t.Errorf("orphan incumbents = %d, want 1", snap.IncumbentUpdates)
	}
}

func TestMergeDoesNotReplayChildEvents(t *testing.T) {
	parent := &Stats{}
	got := collectProgress(parent)

	child := parent.Child()
	child.ObserveLowerBound(3) // streams live through the inherited hook
	parent.Merge(child)

	evs := got()
	if n := kinds(evs)[ProgressLowerBound]; n != 1 {
		t.Errorf("lower_bound events = %d, want 1 (merge must fold silently)", n)
	}
	// The bound itself still lands in the parent.
	if snap := parent.Snapshot(); snap.LowerBound == nil || *snap.LowerBound != 3 {
		t.Errorf("parent lower bound = %v, want 3", snap.LowerBound)
	}
}

// progressProblem builds a small instance with a nonempty deletion so the
// portfolio members have real work.
func progressProblem(t *testing.T) *Problem {
	t.Helper()
	for seed := int64(1); seed <= 8; seed++ {
		p := chainProblem(t, seed, 3)
		if p.DeltaLen() > 0 {
			return p
		}
	}
	t.Fatal("no chain seed produced a nonempty deletion")
	return nil
}

func TestPortfolioEmitsRaceMemberEvents(t *testing.T) {
	p := progressProblem(t)
	pf := &Portfolio{Solvers: []Solver{&Greedy{}, &BruteForce{}}}

	ctx, st := WithStats(context.Background())
	got := collectProgress(st)
	if _, err := pf.Solve(ctx, p); err != nil {
		t.Fatal(err)
	}

	evs := got()
	byKind := kinds(evs)
	if byKind[ProgressRaceMemberStart] == 0 {
		t.Fatalf("no race_member_start events: %+v", byKind)
	}
	if byKind[ProgressRaceMemberDone] != 2 {
		t.Fatalf("race_member_done events = %d, want one per member: %+v",
			byKind[ProgressRaceMemberDone], byKind)
	}
	seen := make(map[string]bool)
	for _, ev := range evs {
		if ev.Kind != ProgressRaceMemberDone {
			continue
		}
		if ev.Member == "" || ev.Outcome == "" {
			t.Errorf("done event missing member/outcome: %+v", ev)
		}
		seen[ev.Member] = true
	}
	if !seen["greedy"] || !seen["brute-force"] {
		t.Errorf("done members = %v, want greedy and brute-force", seen)
	}
}

func TestPortfolioParallelEmitsRaceMemberEvents(t *testing.T) {
	p := progressProblem(t)
	pf := &Portfolio{Solvers: []Solver{&Greedy{}, &BruteForce{}}, Parallel: true}

	ctx, st := WithStats(context.Background())
	got := collectProgress(st)
	if _, err := pf.Solve(ctx, p); err != nil {
		t.Fatal(err)
	}
	byKind := kinds(got())
	if byKind[ProgressRaceMemberStart] != 2 {
		t.Errorf("parallel race_member_start = %d, want 2", byKind[ProgressRaceMemberStart])
	}
	if byKind[ProgressRaceMemberDone] != 2 {
		t.Errorf("parallel race_member_done = %d, want 2", byKind[ProgressRaceMemberDone])
	}
}
