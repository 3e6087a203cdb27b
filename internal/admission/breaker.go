package admission

import (
	"sort"
	"sync"
	"time"
)

// Per-solver circuit breakers. A breaker watches one registry solver's
// outcomes: consecutive hard failures (panic, timeout with no incumbent,
// unstoppable) trip it open, open breakers route requests to the fallback
// solver, and after a cooldown a single half-open probe is let through to
// test recovery — probe success closes the breaker, probe failure re-opens
// it for another cooldown.

// BreakerState is a breaker's position.
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// String renders the state for metrics labels and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Outcome classifies one finished solve for the breaker. Neutral outcomes
// (client canceled, solver precondition errors) release a half-open probe
// slot without moving the breaker either way.
type Outcome int

const (
	OutcomeSuccess Outcome = iota
	OutcomeFailure
	OutcomeNeutral
)

// Breaker defaults (delpropd flags override them).
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
)

// BreakerConfig tunes a BreakerSet. Zero fields take the defaults.
type BreakerConfig struct {
	// Threshold is how many consecutive failures trip a breaker.
	Threshold int
	// Cooldown is how long a tripped breaker stays open before admitting a
	// half-open probe.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultBreakerCooldown
	}
	return c
}

// breaker is one solver's state. Guarded by BreakerSet.mu.
type breaker struct {
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool
}

// BreakerSet holds one breaker per solver name, created lazily. A nil
// *BreakerSet is a valid no-op (Allow always true), so the server can run
// with breakers disabled without guards at every call site.
//
//delprop:nilsafe
type BreakerSet struct {
	mu  sync.Mutex
	cfg BreakerConfig       // immutable after NewBreakerSet
	m   map[string]*breaker //delprop:guardedby mu
	// now is the clock, swappable in tests before traffic flows.
	now func() time.Time
	// onTransition observes state changes (metrics hook); called with the
	// set's lock held, so it must not call back into the set.
	onTransition func(solver string, to BreakerState) //delprop:guardedby mu
}

// NewBreakerSet returns an empty set under cfg.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg.withDefaults(), m: make(map[string]*breaker), now: time.Now}
}

// SetTransitionHook installs fn, called on every state transition with the
// solver name and the new state. Install before serving traffic.
func (s *BreakerSet) SetTransitionHook(fn func(solver string, to BreakerState)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onTransition = fn
}

// transition moves b and notifies the hook.
//
//delprop:holds mu
func (s *BreakerSet) transition(name string, b *breaker, to BreakerState) {
	b.state = to
	if to == BreakerOpen {
		b.openedAt = s.now()
		b.probing = false
	}
	if s.onTransition != nil {
		s.onTransition(name, to)
	}
}

// Allow reports whether a request may run the named solver right now.
// Closed breakers always allow; open breakers deny until the cooldown has
// passed, then flip half-open and admit exactly one probe at a time. Every
// allowed request must eventually be Recorded (the solve path records in
// its finish hook) so probe slots are returned.
func (s *BreakerSet) Allow(solver string) bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[solver]
	if !ok {
		return true
	}
	switch b.state {
	case BreakerOpen:
		if s.now().Sub(b.openedAt) < s.cfg.Cooldown {
			return false
		}
		s.transition(solver, b, BreakerHalfOpen)
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Record feeds one finished solve's outcome back into the solver's
// breaker. Outcomes recorded while open (requests admitted before the
// trip) are ignored; recovery belongs to the half-open probe alone.
func (s *BreakerSet) Record(solver string, o Outcome) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[solver]
	if !ok {
		if o != OutcomeFailure {
			// Don't materialize breakers for solvers that only ever succeed.
			return
		}
		b = &breaker{}
		s.m[solver] = b
	}
	switch b.state {
	case BreakerClosed:
		switch o {
		case OutcomeFailure:
			b.consecutive++
			if b.consecutive >= s.cfg.Threshold {
				s.transition(solver, b, BreakerOpen)
			}
		case OutcomeSuccess:
			b.consecutive = 0
		}
	case BreakerHalfOpen:
		b.probing = false
		switch o {
		case OutcomeSuccess:
			b.consecutive = 0
			s.transition(solver, b, BreakerClosed)
		case OutcomeFailure:
			s.transition(solver, b, BreakerOpen)
		}
	}
}

// EachState calls fn once per materialized breaker, sorted by solver
// name, outside the set's lock (a copied view) — the server's series
// sampler refreshes the per-solver state gauge through it each tick, so
// rolling windows see how long a breaker dwelled open, not just the
// transition edges.
func (s *BreakerSet) EachState(fn func(solver string, st BreakerState)) {
	if s == nil || fn == nil {
		return
	}
	type entry struct {
		name  string
		state BreakerState
	}
	s.mu.Lock()
	entries := make([]entry, 0, len(s.m))
	for name, b := range s.m {
		entries = append(entries, entry{name, b.state})
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		fn(e.name, e.state)
	}
}

// BreakerStatus is one breaker's exported state.
type BreakerStatus struct {
	Solver              string `json:"solver"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
}

// Snapshot lists every materialized breaker, sorted by solver name so the
// listing is deterministic.
func (s *BreakerSet) Snapshot() []BreakerStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.m))
	for name := range s.m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]BreakerStatus, 0, len(names))
	for _, name := range names {
		b := s.m[name]
		out = append(out, BreakerStatus{
			Solver:              name,
			State:               b.state.String(),
			ConsecutiveFailures: b.consecutive,
		})
	}
	return out
}
