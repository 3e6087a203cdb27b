// Package session implements the warm-solve registry: a long-lived cache
// keyed by instance fingerprint where a (database, queries) pair is parsed
// and materialized once and successive deletion requests solve against the
// warm state — the *core.Problem skeleton with its provenance index and
// its lazily built classify verdicts and pivot forest. Per-request work (solve, evaluate, core.DualBound) is never
// cached.
//
// Entries carry TTLs with extend-on-read; registration is single-flight
// (concurrent misses for the same fingerprint wait on one build instead of
// stampeding); eviction respects in-flight solves (a busy entry is marked
// dying and finalized when its last solve releases it); and SetDraining
// refuses new registrations and acquisitions during the server's shutdown
// sequence while in-flight solves run to completion.
//
// The package is deliberately telemetry-free: the server wires counters
// and events through Hooks, keeping the registry testable in isolation.
package session

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"delprop/internal/core"
)

// Lifecycle errors.
var (
	// ErrNotFound is returned by Acquire for an unknown or expired id —
	// the caller should treat it as a session miss (HTTP 404).
	ErrNotFound = errors.New("session: not found")
	// ErrDraining is returned when the registry is shutting down.
	ErrDraining = errors.New("session: registry draining")
	// ErrFull is returned when the registry is at capacity and every
	// entry has a solve in flight, so nothing can be evicted.
	ErrFull = errors.New("session: registry full")
)

// Eviction reasons passed to Hooks.OnEvict.
const (
	EvictTTL      = "ttl"      // the entry's TTL expired
	EvictCapacity = "capacity" // LRU eviction to admit a new entry
	EvictExplicit = "explicit" // DELETE /sessions/{id}
	EvictError    = "error"    // the build failed; placeholder removed
)

// Hooks let the owner observe registry transitions without the registry
// importing telemetry. All hooks are optional and are invoked outside the
// registry lock; they must be safe for concurrent use.
type Hooks struct {
	// OnHit fires when a warm entry serves a request (an Acquire, or a
	// Register that found the fingerprint already resident).
	OnHit func(id string)
	// OnMiss fires when a lookup finds nothing warm: an unknown or
	// expired id, or a Register that had to build from scratch.
	OnMiss func(id string)
	// OnEvict fires once per removed entry with one of the Evict*
	// reasons.
	OnEvict func(id, reason string)
	// OnEntries fires with the new resident-entry count after every
	// change.
	OnEntries func(n int)
}

// Config parameterizes a Registry. Zero values select the defaults.
type Config struct {
	// TTL is the idle lifetime of an entry; reads extend it.
	TTL time.Duration
	// MaxEntries bounds the resident entry count (LRU eviction).
	MaxEntries int
	// Now is the clock (nil: time.Now), a seam for a test's fake clock.
	Now func() time.Time
	// Hooks observe hits, misses, evictions and the entry count.
	Hooks Hooks
}

// Defaults for Config zero values.
const (
	DefaultTTL        = 15 * time.Minute
	DefaultMaxEntries = 64
)

// DefaultMaxBoundCerts is kept for callers of Entry.DualBound, which
// ignores it.
const DefaultMaxBoundCerts = 256

func (c Config) withDefaults() Config {
	if c.TTL <= 0 {
		c.TTL = DefaultTTL
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Registry is the session store. All methods are safe for concurrent use.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	entries  map[string]*Entry //delprop:guardedby mu
	byFp     map[string]*Entry //delprop:guardedby mu
	seq      uint64            //delprop:guardedby mu
	draining bool              //delprop:guardedby mu
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		entries: make(map[string]*Entry),
		byFp:    make(map[string]*Entry),
	}
}

// Entry is one warm instance. ID, Fingerprint, CreatedAt and — once the
// ready channel is closed — Problem and buildErr are immutable; the rest
// is guarded by mu.
type Entry struct {
	ID          string
	Fingerprint string
	CreatedAt   time.Time
	// Tenant is the tenant the session was registered under; warm solves
	// are admitted and charged against it.
	Tenant string

	// ready is closed when the build completes; Problem and buildErr
	// must not be read before then. This is the single-flight latch:
	// concurrent registrations of the same fingerprint wait here.
	ready    chan struct{}
	problem  *core.Problem // immutable once ready is closed
	buildErr error         // immutable once ready is closed

	mu       sync.Mutex
	expires  time.Time //delprop:guardedby mu
	lastUsed time.Time //delprop:guardedby mu
	inflight int       //delprop:guardedby mu
	dying    bool      //delprop:guardedby mu
	dyingWhy string    //delprop:guardedby mu
	hits     uint64    //delprop:guardedby mu
}

// Problem returns the warm skeleton (nil until the build completes; call
// only after Register or Acquire returned successfully).
func (e *Entry) Problem() *core.Problem { return e.problem }

// ExpiresAt returns the entry's current expiry instant (it moves forward
// on every read).
func (e *Entry) ExpiresAt() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.expires
}

// Fingerprint derives the registry key for a (database, queries) pair.
// The inputs are the raw text forms, so byte-identical uploads share an
// entry and any textual difference — even whitespace — gets its own.
func Fingerprint(database, queries string) string {
	h := sha256.New()
	h.Write([]byte(database))
	h.Write([]byte{0})
	h.Write([]byte(queries))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Register returns the warm entry for the fingerprint, building it with
// build on first sight. The bool reports whether the entry was already
// resident (a hit). Concurrent registrations of one fingerprint are
// single-flight: one caller builds, the rest wait on the result. A
// successful Register counts as a use: the TTL is extended and the entry
// pinned in LRU order.
func (r *Registry) Register(ctx context.Context, fingerprint, tenant string, build func() (*core.Problem, error)) (*Entry, bool, error) {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return nil, false, ErrDraining
	}
	now := r.cfg.Now()
	if e := r.byFp[fingerprint]; e != nil && !r.expiredLocked(e, now) {
		r.mu.Unlock()
		return r.await(ctx, e, true)
	}
	// Miss: make room, then install a placeholder so concurrent misses
	// for the same fingerprint wait on this build instead of repeating it.
	evicted, err := r.evictForCapacityLocked()
	if err != nil {
		r.mu.Unlock()
		return nil, false, err
	}
	r.seq++
	e := &Entry{
		ID:          fmt.Sprintf("s%06d-%s", r.seq, fingerprint[:8]),
		Fingerprint: fingerprint,
		CreatedAt:   now,
		Tenant:      tenant,
		ready:       make(chan struct{}),
		expires:     now.Add(r.cfg.TTL),
		lastUsed:    now,
	}
	r.entries[e.ID] = e
	r.byFp[fingerprint] = e
	n := len(r.entries)
	r.mu.Unlock()
	for _, id := range evicted {
		r.notifyEvict(id, EvictCapacity)
	}
	r.notifyEntries(n)

	e.problem, e.buildErr = build()
	close(e.ready)
	if e.buildErr != nil {
		r.remove(e, EvictError)
		r.miss(e.ID)
		return nil, false, e.buildErr
	}
	r.miss(e.ID)
	return e, false, nil
}

// await blocks until the entry's single-flight build completes, then
// treats the lookup as a use (TTL extension + hit accounting).
func (r *Registry) await(ctx context.Context, e *Entry, isHit bool) (*Entry, bool, error) {
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if e.buildErr != nil {
		return nil, false, e.buildErr
	}
	r.touch(e)
	if isHit {
		r.hit(e.ID)
	}
	return e, true, nil
}

// Acquire checks out a warm entry for one solve: the TTL is extended
// (extend-on-read) and the entry is pinned against eviction until the
// matching Release. Unknown, still-building-failed, expired or draining
// lookups miss.
func (r *Registry) Acquire(ctx context.Context, id string) (*Entry, error) {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		r.miss(id)
		return nil, ErrDraining
	}
	e := r.entries[id]
	now := r.cfg.Now()
	if e == nil || r.expiredLocked(e, now) {
		r.mu.Unlock()
		if e != nil {
			r.remove(e, EvictTTL)
		}
		r.miss(id)
		return nil, ErrNotFound
	}
	r.mu.Unlock()
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	e.mu.Lock()
	if e.buildErr != nil || e.dying {
		e.mu.Unlock()
		r.miss(id)
		return nil, ErrNotFound
	}
	now = r.cfg.Now()
	e.inflight++
	e.hits++
	e.lastUsed = now
	e.expires = now.Add(r.cfg.TTL)
	e.mu.Unlock()
	r.hit(id)
	return e, nil
}

// Release returns an entry checked out by Acquire. If the entry was
// marked dying while the solve ran, the last Release finalizes the
// eviction.
func (r *Registry) Release(e *Entry) {
	e.mu.Lock()
	if e.inflight > 0 {
		e.inflight--
	}
	finalize := e.dying && e.inflight == 0
	why := e.dyingWhy
	e.mu.Unlock()
	if finalize {
		r.remove(e, why)
	}
}

// Evict removes an entry by id. A busy entry is marked dying and
// finalized by its last Release; the call still reports success.
func (r *Registry) Evict(id, reason string) bool {
	r.mu.Lock()
	e := r.entries[id]
	r.mu.Unlock()
	if e == nil {
		return false
	}
	r.evictEntry(e, reason)
	return true
}

// evictEntry removes e now if idle, or marks it dying if busy.
func (r *Registry) evictEntry(e *Entry, reason string) {
	e.mu.Lock()
	e.dying = true
	if e.dyingWhy == "" {
		e.dyingWhy = reason
	}
	busy, reason := e.inflight > 0, e.dyingWhy
	e.mu.Unlock()
	if !busy {
		r.remove(e, reason)
	}
}

// Sweep evicts every entry whose TTL elapsed before now, skipping (but
// marking dying) entries with solves in flight. It returns the number of
// entries evicted or marked. The owner calls this from a janitor loop.
func (r *Registry) Sweep(now time.Time) int {
	r.mu.Lock()
	var stale []*Entry
	for _, e := range r.entries {
		if r.expiredLocked(e, now) {
			stale = append(stale, e)
		}
	}
	r.mu.Unlock()
	sort.Slice(stale, func(i, j int) bool { return stale[i].ID < stale[j].ID })
	for _, e := range stale {
		r.evictEntry(e, EvictTTL)
	}
	return len(stale)
}

// SetDraining flips drain mode: new registrations and acquisitions are
// refused while in-flight solves run to completion.
func (r *Registry) SetDraining(v bool) {
	r.mu.Lock()
	r.draining = v
	r.mu.Unlock()
}

// sortedEntries copies the resident entries out from under the registry
// lock, sorted by id.
func (r *Registry) sortedEntries() []*Entry {
	r.mu.Lock()
	entries := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	return entries
}

// expiredLocked reports whether e's TTL elapsed.
//
//delprop:holds mu
func (r *Registry) expiredLocked(e *Entry, now time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return now.After(e.expires)
}

// evictForCapacityLocked frees slots while the registry is at capacity by
// evicting the least-recently-used idle entries; ErrFull when all are
// busy. The caller fires OnEvict for the returned ids once the registry
// lock drops.
//
//delprop:holds mu
func (r *Registry) evictForCapacityLocked() ([]string, error) {
	var evicted []string
	for len(r.entries) >= r.cfg.MaxEntries {
		var victim *Entry
		var victimUsed time.Time
		for _, e := range r.entries {
			e.mu.Lock()
			idle := e.inflight == 0 && !e.dying
			used := e.lastUsed
			e.mu.Unlock()
			if !idle {
				continue
			}
			if victim == nil || used.Before(victimUsed) || used.Equal(victimUsed) && e.ID < victim.ID {
				//lint:ignore mapdet ties on lastUsed break by ID, so the victim does not depend on iteration order
				victim, victimUsed = e, used
			}
		}
		if victim == nil {
			return evicted, ErrFull
		}
		victim.mu.Lock()
		victim.dying = true
		victim.dyingWhy = EvictCapacity
		victim.mu.Unlock()
		r.removeLocked(victim)
		evicted = append(evicted, victim.ID)
	}
	return evicted, nil
}

// touch extends an entry's TTL and records the hit (extend-on-read).
func (r *Registry) touch(e *Entry) {
	now := r.cfg.Now()
	e.mu.Lock()
	e.hits++
	e.lastUsed = now
	e.expires = now.Add(r.cfg.TTL)
	e.mu.Unlock()
}

// remove deletes an entry from both indexes and fires hooks.
func (r *Registry) remove(e *Entry, reason string) {
	r.mu.Lock()
	_, present := r.entries[e.ID]
	if present {
		r.removeLocked(e)
	}
	n := len(r.entries)
	r.mu.Unlock()
	if present {
		r.notifyEvict(e.ID, reason)
		r.notifyEntries(n)
	}
}

// removeLocked unlinks e from the indexes.
//
//delprop:holds mu
func (r *Registry) removeLocked(e *Entry) {
	delete(r.entries, e.ID)
	if r.byFp[e.Fingerprint] == e {
		delete(r.byFp, e.Fingerprint)
	}
}

func (r *Registry) hit(id string) {
	if r.cfg.Hooks.OnHit != nil {
		r.cfg.Hooks.OnHit(id)
	}
}

func (r *Registry) miss(id string) {
	if r.cfg.Hooks.OnMiss != nil {
		r.cfg.Hooks.OnMiss(id)
	}
}

func (r *Registry) notifyEvict(id, reason string) {
	if r.cfg.Hooks.OnEvict != nil {
		r.cfg.Hooks.OnEvict(id, reason)
	}
}

func (r *Registry) notifyEntries(n int) {
	if r.cfg.Hooks.OnEntries != nil {
		r.cfg.Hooks.OnEntries(n)
	}
}

// DualBound returns core.DualBound(p) for a problem specialized from
// this entry's skeleton. The bool (a certificate-cache hit) is always
// false and maxCerts is ignored: the entry caches no bounds. It remains
// for callers written against the former cache.
func (e *Entry) DualBound(p *core.Problem, maxCerts int) (float64, bool, error) {
	lb, err := core.DualBound(p)
	return lb, false, err
}

// Snapshot is the /debug/sessions view of one entry.
type Snapshot struct {
	ID            string    `json:"id"`
	Fingerprint   string    `json:"fingerprint"`
	Tenant        string    `json:"tenant,omitempty"`
	CreatedAt     time.Time `json:"createdAt"`
	LastUsed      time.Time `json:"lastUsed"`
	ExpiresAt     time.Time `json:"expiresAt"`
	Hits          uint64    `json:"hits"`
	InFlight      int       `json:"inFlight"`
	Dying         bool      `json:"dying,omitempty"`
	Ready         bool      `json:"ready"`
	DBSize        int       `json:"dbSize"`
	Queries       int       `json:"queries"`
	ViewSize      int       `json:"viewSize"`
	KeyPreserving bool      `json:"keyPreserving"`
}

// Snapshot returns the state of every resident entry sorted by id.
func (r *Registry) Snapshot() []Snapshot {
	entries := r.sortedEntries()
	out := make([]Snapshot, 0, len(entries))
	for _, e := range entries {
		s := Snapshot{ID: e.ID, Fingerprint: e.Fingerprint, Tenant: e.Tenant, CreatedAt: e.CreatedAt}
		select {
		case <-e.ready:
			s.Ready = e.buildErr == nil
		default:
		}
		e.mu.Lock()
		s.LastUsed = e.lastUsed
		s.ExpiresAt = e.expires
		s.Hits = e.hits
		s.InFlight = e.inflight
		s.Dying = e.dying
		e.mu.Unlock()
		if s.Ready {
			p := e.problem
			s.DBSize = p.DB.Size()
			s.Queries = len(p.Queries)
			s.ViewSize = p.TotalViewSize()
			s.KeyPreserving = p.IsKeyPreserving()
		}
		out = append(out, s)
	}
	return out
}
