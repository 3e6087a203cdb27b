package admission

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock drives engine/breaker time deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testEngine(t *testing.T, doc string) (*Engine, *fakeClock) {
	t.Helper()
	p, err := ParsePolicy([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	// Install the fake clock before the policy so bucket refill anchors use
	// fake time, not the wall clock NewEngine would stamp.
	e := NewEngine(nil)
	e.now = clock.Now
	e.SetPolicy(p)
	return e, clock
}

func TestEngineResolve(t *testing.T) {
	e, _ := testEngine(t, samplePolicy)
	name, pol, explicit := e.Resolve("gold")
	if name != "gold" || pol.Priority != PriorityHigh || !explicit {
		t.Errorf("gold resolve = %q %v %v", name, pol.Priority, explicit)
	}
	// Unknown names collapse to the default tenant, name included, so
	// attacker-chosen header values cannot blow up metric cardinality.
	name, pol, explicit = e.Resolve("nobody-configured-this")
	if name != "anonymous" || explicit {
		t.Errorf("unknown resolve = %q explicit=%v", name, explicit)
	}
	if pol.RatePerSec != 10 {
		t.Errorf("unknown tenant must inherit the default policy: %+v", pol)
	}
	if name, _, _ := e.Resolve(""); name != "anonymous" {
		t.Errorf("empty resolve = %q", name)
	}
}

func TestEngineRateLimit(t *testing.T) {
	e, clock := testEngine(t, `{"tenants":[{"name":"t","ratePerSec":2,"burst":2}],"defaultTenant":"t"}`)
	for i := 0; i < 2; i++ {
		d := e.Admit("t")
		if !d.OK {
			t.Fatalf("burst admit %d rejected: %+v", i, d)
		}
		d.Release()
	}
	d := e.Admit("t")
	if d.OK || d.Rule != RuleRateLimit {
		t.Fatalf("over-rate admit = %+v", d)
	}
	if d.RetryAfter <= 0 || d.RetryAfter > time.Second {
		t.Errorf("retryAfter = %v, want (0, 500ms]-ish at 2 tokens/s", d.RetryAfter)
	}
	// Refill: half a second buys one token at 2/s.
	clock.Advance(500 * time.Millisecond)
	if d := e.Admit("t"); !d.OK {
		t.Fatalf("post-refill admit rejected: %+v", d)
	}
}

func TestEngineConcurrencyQuota(t *testing.T) {
	e, _ := testEngine(t, `{"tenants":[{"name":"t","maxConcurrent":2}],"defaultTenant":"t"}`)
	d1, d2 := e.Admit("t"), e.Admit("t")
	if !d1.OK || !d2.OK {
		t.Fatal("quota admits rejected")
	}
	d3 := e.Admit("t")
	if d3.OK || d3.Rule != RuleTenantConcurrency {
		t.Fatalf("over-quota admit = %+v", d3)
	}
	d1.Release()
	if d := e.Admit("t"); !d.OK {
		t.Fatal("released slot not reusable")
	}
	// Double release must not free a second slot.
	d1.Release()
	if got := e.Inflight("t"); got != 2 {
		t.Errorf("inflight after double release = %d, want 2", got)
	}
}

func TestEngineCharge(t *testing.T) {
	e, _ := testEngine(t, `{"tenants":[{"name":"t","ratePerSec":1,"burst":2}],"defaultTenant":"t"}`)
	for i := 0; i < 2; i++ {
		if ok, _ := e.Charge("t"); !ok {
			t.Fatalf("charge %d rejected inside burst", i)
		}
	}
	ok, retry := e.Charge("t")
	if ok {
		t.Fatal("charge beyond burst accepted")
	}
	if retry <= 0 {
		t.Errorf("retry hint = %v", retry)
	}
	// Charging never consumes concurrency quota.
	if got := e.Inflight("t"); got != 0 {
		t.Errorf("inflight after charges = %d", got)
	}
}

func TestEngineReloadKeepsInflight(t *testing.T) {
	e, _ := testEngine(t, `{"tenants":[{"name":"t","maxConcurrent":2}],"defaultTenant":"t"}`)
	d := e.Admit("t")
	if !d.OK {
		t.Fatal("admit rejected")
	}
	p2, err := ParsePolicy([]byte(`{"tenants":[{"name":"t","maxConcurrent":1}],"defaultTenant":"t"}`))
	if err != nil {
		t.Fatal(err)
	}
	e.SetPolicy(p2)
	if got := e.Inflight("t"); got != 1 {
		t.Fatalf("inflight lost across reload: %d", got)
	}
	// The held slot now saturates the tightened quota.
	if d2 := e.Admit("t"); d2.OK {
		t.Fatal("reload must not double-grant quota")
	}
	d.Release()
	if d3 := e.Admit("t"); !d3.OK {
		t.Fatal("slot held by a pre-reload request never came back")
	}
}

func TestEngineReloadKeepsBucketLevel(t *testing.T) {
	e, _ := testEngine(t, `{"tenants":[{"name":"t","ratePerSec":1,"burst":5}],"defaultTenant":"t"}`)
	for i := 0; i < 5; i++ {
		e.Admit("t").Release()
	}
	if d := e.Admit("t"); d.OK {
		t.Fatal("bucket should be empty")
	}
	// Reload with the same curve: the drained bucket stays drained.
	same, _ := ParsePolicy([]byte(`{"tenants":[{"name":"t","ratePerSec":1,"burst":5}],"defaultTenant":"t"}`))
	e.SetPolicy(same)
	if d := e.Admit("t"); d.OK {
		t.Fatal("reload with an unchanged curve handed out a fresh burst")
	}
	// Reload with a new curve: the bucket resets to the new burst.
	changed, _ := ParsePolicy([]byte(`{"tenants":[{"name":"t","ratePerSec":1,"burst":6}],"defaultTenant":"t"}`))
	e.SetPolicy(changed)
	if d := e.Admit("t"); !d.OK {
		t.Fatal("changed curve should start full")
	}
}

func TestRequestInfoContext(t *testing.T) {
	if got := InfoFromContext(context.Background()); got != nil {
		t.Fatalf("empty ctx info = %+v", got)
	}
	info := &RequestInfo{Tenant: "gold", Priority: PriorityHigh}
	ctx := WithRequestInfo(context.Background(), info)
	if got := InfoFromContext(ctx); got != info {
		t.Fatalf("info round trip failed: %+v", got)
	}
}

func TestEngineNilPolicyIsDefault(t *testing.T) {
	e := NewEngine(nil)
	if e.TenantHeader() != DefaultTenantHeader {
		t.Errorf("header = %q", e.TenantHeader())
	}
	name, pol, _ := e.Resolve("whatever")
	if name != DefaultTenantName || pol.MaxConcurrent != 0 {
		t.Errorf("resolve = %q %+v", name, pol)
	}
	for i := 0; i < 100; i++ {
		d := e.Admit("x")
		if !d.OK {
			t.Fatal("default policy must be unlimited")
		}
	}
}

// TestEngineUsableTheInstantConstructed pins the delproplint lockguard
// fix in NewEngine: install runs under e.mu at both call sites, so the
// engine is safely shareable the moment the constructor returns, even
// with policy reloads racing admissions. -race validates the discipline.
func TestEngineUsableTheInstantConstructed(t *testing.T) {
	e := NewEngine(nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				e.SetPolicy(nil)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				name, pol, _ := e.Resolve("nobody")
				if pol == nil {
					t.Errorf("Resolve(%q) returned a nil policy", name)
					return
				}
				d := e.Admit("nobody")
				e.Charge("nobody")
				e.Inflight("nobody")
				d.Release()
			}
		}()
	}
	wg.Wait()
}

// Inflight reports the tenant's currently-admitted request count.
func (e *Engine) Inflight(name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.tenants[name]; ok {
		return st.inflight
	}
	return 0
}
