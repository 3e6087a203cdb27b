package admission

import (
	"context"
	"sync"
	"time"
)

// Engine enforces an installed Policy: it classifies request tenants and
// answers admit/deny with per-tenant token buckets and concurrency quotas.
// The policy is swappable at runtime (SIGHUP reload in delpropd); in-flight
// quota accounting survives a swap for tenants that keep their name. All
// methods are safe for concurrent use.
type Engine struct {
	mu      sync.Mutex
	policy  *Policy                 //delprop:guardedby mu
	tenants map[string]*tenantState //delprop:guardedby mu
	// now is the clock, swappable in tests before traffic flows.
	now func() time.Time
}

// tenantState is one tenant's runtime accounting.
type tenantState struct {
	pol      *TenantPolicy
	inflight int
	// Token bucket: tokens available at refillAt, replenished lazily.
	tokens   float64
	refillAt time.Time
}

// NewEngine installs p (nil means DefaultPolicy).
func NewEngine(p *Policy) *Engine {
	e := &Engine{now: time.Now}
	if p == nil {
		p = DefaultPolicy()
	}
	// Locking before publication costs nothing and keeps install's
	// holds-contract uniform across both call sites.
	e.mu.Lock()
	e.install(p)
	e.mu.Unlock()
	return e
}

// install swaps the policy; in-flight accounting survives for tenants
// that keep their name.
//
//delprop:holds mu
func (e *Engine) install(p *Policy) {
	if p.TenantHeader == "" {
		p.TenantHeader = DefaultTenantHeader
	}
	if p.DefaultTenant == "" {
		p.DefaultTenant = DefaultTenantName
	}
	if p.Tenant(p.DefaultTenant) == nil {
		// Hand-built policies may omit the default tenant ParsePolicy would
		// have synthesized; every request must classify somewhere.
		p.Tenants = append(p.Tenants, &TenantPolicy{
			Name: p.DefaultTenant, Priority: PriorityNormal, Degrade: true,
		})
	}
	states := make(map[string]*tenantState, len(p.Tenants))
	now := e.now()
	for _, t := range p.Tenants {
		st := &tenantState{pol: t, tokens: float64(t.Burst), refillAt: now}
		if prev, ok := e.tenants[t.Name]; ok {
			// Keep the in-flight count across reload so quota slots held by
			// running requests are not double-granted, and keep the bucket
			// level when the curve is unchanged (a reload must not hand every
			// tenant a fresh burst).
			st.inflight = prev.inflight
			if prev.pol.RatePerSec == t.RatePerSec && prev.pol.Burst == t.Burst {
				st.tokens, st.refillAt = prev.tokens, prev.refillAt
			}
		}
		states[t.Name] = st
	}
	e.policy = p
	e.tenants = states
}

// SetPolicy atomically replaces the installed policy (nil restores the
// default). Tenants that keep their name keep their in-flight accounting.
func (e *Engine) SetPolicy(p *Policy) {
	if p == nil {
		p = DefaultPolicy()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.install(p)
}

// TenantHeader returns the header consulted to classify requests.
func (e *Engine) TenantHeader() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.policy.TenantHeader
}

// Resolve maps a claimed tenant name to the policy that governs it. Unknown
// (or empty) names fall back to the default tenant — including its *name*,
// so metric label cardinality stays bounded by the policy file even when
// clients send arbitrary header values. explicit reports whether the name
// matched a configured tenant.
func (e *Engine) Resolve(name string) (resolved string, pol *TenantPolicy, explicit bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if name != "" {
		if st, ok := e.tenants[name]; ok {
			return name, st.pol, true
		}
	}
	def := e.policy.DefaultTenant
	return def, e.tenants[def].pol, false
}

// take deducts one token from st's bucket at time now, reporting success
// and, on failure, how long until the next token. Caller holds e.mu.
func (st *tenantState) take(now time.Time) (bool, time.Duration) {
	pol := st.pol
	if pol.RatePerSec <= 0 {
		return true, 0
	}
	if now.After(st.refillAt) {
		st.tokens += now.Sub(st.refillAt).Seconds() * pol.RatePerSec
		if st.tokens > float64(pol.Burst) {
			st.tokens = float64(pol.Burst)
		}
		st.refillAt = now
	}
	if st.tokens >= 1 {
		st.tokens--
		return true, 0
	}
	deficit := 1 - st.tokens
	return false, time.Duration(deficit / pol.RatePerSec * float64(time.Second))
}

// Decision is the Engine's verdict on one request. When OK, the caller
// must call Release exactly once after the request finishes (it returns
// the concurrency-quota slot). When !OK, Rule names the rule that fired
// and RetryAfter hints when retrying could succeed (zero when the engine
// has no estimate).
type Decision struct {
	Tenant     string
	Policy     *TenantPolicy
	OK         bool
	Rule       string
	RetryAfter time.Duration
	release    func()
}

// Release returns the admitted request's quota slot; safe to call on a
// rejected decision (no-op).
func (d *Decision) Release() {
	if d != nil && d.release != nil {
		d.release()
		d.release = nil
	}
}

// Rule names reported on rejections and degraded responses.
const (
	RuleRateLimit         = "rate-limit"
	RuleTenantConcurrency = "tenant-concurrency"
	RuleOverload          = "overload"
	RuleOverloadDegrade   = "overload-degrade"
)

// Admit runs the tenant's rate and concurrency checks for one request,
// resolving unknown names to the default tenant first.
func (e *Engine) Admit(name string) *Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.tenants[name]
	if !ok {
		st = e.tenants[e.policy.DefaultTenant]
		name = e.policy.DefaultTenant
	}
	d := &Decision{Tenant: name, Policy: st.pol}
	if ok, retry := st.take(e.now()); !ok {
		d.Rule, d.RetryAfter = RuleRateLimit, retry
		return d
	}
	if st.pol.MaxConcurrent > 0 && st.inflight >= st.pol.MaxConcurrent {
		d.Rule = RuleTenantConcurrency
		return d
	}
	st.inflight++
	d.OK = true
	d.release = func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		// The state object may have been replaced by a reload; decrement the
		// *current* accounting for the tenant name so slots never leak.
		if cur, ok := e.tenants[name]; ok && cur.inflight > 0 {
			cur.inflight--
		}
	}
	return d
}

// Charge deducts one rate token from the tenant's bucket without touching
// the concurrency quota — POST /solve/batch charges each item against the
// requesting tenant this way, so a 64-item batch costs 64 tokens rather
// than the single shed slot it used to.
func (e *Engine) Charge(name string) (bool, time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.tenants[name]
	if !ok {
		st = e.tenants[e.policy.DefaultTenant]
	}
	return st.take(e.now())
}

// RequestInfo is the admission verdict carried through the request context
// from the middleware to the solve path: which tenant the request belongs
// to, and whether the overload ladder downgraded it.
type RequestInfo struct {
	// Tenant is the resolved tenant name (bounded by the policy file).
	Tenant string
	// Priority is the tenant's priority class.
	Priority Priority
	// Explicit reports whether the tenant came from a matching header value
	// (false means the default tenant absorbed the request, and a request
	// body field may still refine shaping).
	Explicit bool
	// Degraded marks a request the overload ladder downgraded to the cheap
	// solver; Rule names the rung that fired.
	Degraded bool
	Rule     string
}

// requestInfoKey carries RequestInfo through the context.
type requestInfoKey struct{}

// WithRequestInfo attaches the admission verdict to ctx.
func WithRequestInfo(ctx context.Context, info *RequestInfo) context.Context {
	return context.WithValue(ctx, requestInfoKey{}, info)
}

// InfoFromContext returns the attached verdict, or nil outside the
// admission middleware (library embedders, direct tests).
func InfoFromContext(ctx context.Context) *RequestInfo {
	info, _ := ctx.Value(requestInfoKey{}).(*RequestInfo)
	return info
}
