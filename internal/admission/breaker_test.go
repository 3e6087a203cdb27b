package admission

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testBreakers() (*BreakerSet, *fakeClock) {
	clock := newFakeClock()
	s := NewBreakerSet(BreakerConfig{Threshold: 3, Cooldown: 10 * time.Second})
	s.now = clock.Now
	return s, clock
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	s, _ := testBreakers()
	for i := 0; i < 2; i++ {
		s.Record("bf", OutcomeFailure)
		if !s.Allow("bf") {
			t.Fatalf("breaker tripped after %d failures (threshold 3)", i+1)
		}
	}
	// A success in between resets the streak.
	s.Record("bf", OutcomeSuccess)
	s.Record("bf", OutcomeFailure)
	s.Record("bf", OutcomeFailure)
	if !s.Allow("bf") {
		t.Fatal("streak did not reset on success")
	}
	s.Record("bf", OutcomeFailure)
	if s.Allow("bf") {
		t.Fatal("breaker did not trip at the threshold")
	}
	if got := s.State("bf"); got != BreakerOpen {
		t.Errorf("state = %v", got)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	s, clock := testBreakers()
	for i := 0; i < 3; i++ {
		s.Record("bf", OutcomeFailure)
	}
	if s.Allow("bf") {
		t.Fatal("open breaker allowed a request before cooldown")
	}
	clock.Advance(11 * time.Second)
	if !s.Allow("bf") {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if got := s.State("bf"); got != BreakerHalfOpen {
		t.Errorf("state during probe = %v", got)
	}
	// Only one probe at a time.
	if s.Allow("bf") {
		t.Fatal("second concurrent probe admitted")
	}
	s.Record("bf", OutcomeSuccess)
	if got := s.State("bf"); got != BreakerClosed {
		t.Errorf("state after probe success = %v", got)
	}
	if !s.Allow("bf") {
		t.Fatal("closed breaker denies")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	s, clock := testBreakers()
	for i := 0; i < 3; i++ {
		s.Record("bf", OutcomeFailure)
	}
	clock.Advance(11 * time.Second)
	if !s.Allow("bf") {
		t.Fatal("no probe admitted")
	}
	s.Record("bf", OutcomeFailure)
	if got := s.State("bf"); got != BreakerOpen {
		t.Errorf("state after probe failure = %v", got)
	}
	// The cooldown restarts from the re-open.
	clock.Advance(9 * time.Second)
	if s.Allow("bf") {
		t.Fatal("re-opened breaker admitted before a fresh cooldown")
	}
	clock.Advance(2 * time.Second)
	if !s.Allow("bf") {
		t.Fatal("fresh cooldown elapsed but no probe admitted")
	}
}

func TestBreakerNeutralReleasesProbe(t *testing.T) {
	s, clock := testBreakers()
	for i := 0; i < 3; i++ {
		s.Record("bf", OutcomeFailure)
	}
	clock.Advance(11 * time.Second)
	if !s.Allow("bf") {
		t.Fatal("no probe admitted")
	}
	// The probe request was canceled by its client: neutral. The slot must
	// come back so the next request can probe, and the state must not move.
	s.Record("bf", OutcomeNeutral)
	if got := s.State("bf"); got != BreakerHalfOpen {
		t.Errorf("state after neutral probe = %v", got)
	}
	if !s.Allow("bf") {
		t.Fatal("probe slot leaked on a neutral outcome")
	}
}

func TestBreakerLateResultsWhileOpenIgnored(t *testing.T) {
	s, _ := testBreakers()
	for i := 0; i < 3; i++ {
		s.Record("bf", OutcomeFailure)
	}
	// A request admitted before the trip finishes successfully now: it must
	// not close the breaker (recovery belongs to the probe path).
	s.Record("bf", OutcomeSuccess)
	if got := s.State("bf"); got != BreakerOpen {
		t.Errorf("late success closed an open breaker: %v", got)
	}
}

func TestBreakerTransitionsAndSnapshot(t *testing.T) {
	s, clock := testBreakers()
	var mu sync.Mutex
	var seen []string
	s.SetTransitionHook(func(solver string, to BreakerState) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, solver+":"+to.String())
	})
	for i := 0; i < 3; i++ {
		s.Record("bf", OutcomeFailure)
	}
	clock.Advance(11 * time.Second)
	s.Allow("bf")
	s.Record("bf", OutcomeSuccess)
	mu.Lock()
	got := append([]string(nil), seen...)
	mu.Unlock()
	want := []string{"bf:open", "bf:half-open", "bf:closed"}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", got, want)
		}
	}

	s.Record("zz", OutcomeFailure)
	s.Record("aa", OutcomeFailure)
	snap := s.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Solver != "aa" || snap[1].Solver != "bf" || snap[2].Solver != "zz" {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
	if snap[1].State != "closed" || snap[1].ConsecutiveFailures != 0 {
		t.Errorf("bf status = %+v", snap[1])
	}
}

func TestBreakerSuccessesDoNotMaterialize(t *testing.T) {
	s, _ := testBreakers()
	s.Record("ok-solver", OutcomeSuccess)
	if len(s.Snapshot()) != 0 {
		t.Errorf("success materialized a breaker: %+v", s.Snapshot())
	}
}

func TestBreakerNilSet(t *testing.T) {
	var s *BreakerSet
	if !s.Allow("x") {
		t.Error("nil set must allow")
	}
	s.Record("x", OutcomeFailure) // must not panic
	s.SetTransitionHook(nil)
	if s.State("x") != BreakerClosed {
		t.Error("nil set state")
	}
	if s.Snapshot() != nil {
		t.Error("nil set snapshot")
	}
}

// TestBreakerTransitionHookUnderContention pins the //delprop:holds
// contract on transition and the guardedby annotation on onTransition:
// the hook swap and the transitions it observes all serialize on the
// set's mutex, so a hook installed mid-flight never tears. -race
// validates the discipline.
func TestBreakerTransitionHookUnderContention(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: time.Nanosecond})
	var transitions atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.SetTransitionHook(func(solver string, to BreakerState) { transitions.Add(1) })
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if s.Allow("flaky") {
					s.Record("flaky", OutcomeFailure)
				}
				s.State("flaky")
				s.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s.State("flaky") == BreakerClosed {
		t.Error("breaker never tripped under the failure load")
	}
	if transitions.Load() == 0 {
		t.Error("transition hook never observed a transition")
	}
}

// State returns the named solver's current state (closed when the solver
// has no breaker yet).
func (s *BreakerSet) State(solver string) BreakerState {
	if s == nil {
		return BreakerClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[solver]; ok {
		return b.state
	}
	return BreakerClosed
}
