package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"delprop/internal/core"
	"delprop/internal/server"
	"delprop/internal/telemetry"
)

const testDB = `
relation T1(AuName*, Journal*)
T1(Joe, TKDE)
T1(John, TKDE)
relation T2(Journal*, Topic*, Papers)
T2(TKDE, XML, 30)
`

// drainSolver signals when a solve is in flight, then waits for release (or
// its context) so the test controls exactly when the request finishes.
type drainSolver struct {
	mu      sync.Mutex
	entered chan struct{}
	release chan struct{}
}

func (d *drainSolver) Name() string { return "test-drain" }

func (d *drainSolver) Solve(ctx context.Context, p *core.Problem) (*core.Solution, error) {
	d.mu.Lock()
	if d.entered != nil {
		close(d.entered)
		d.entered = nil
	}
	d.mu.Unlock()
	select {
	case <-d.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &core.Solution{}, nil
}

// TestGracefulShutdownDrainsInFlightSolve: a SIGTERM while a solve is in
// flight must let that request complete before the server exits.
func TestGracefulShutdownDrainsInFlightSolve(t *testing.T) {
	drain := &drainSolver{entered: make(chan struct{}), release: make(chan struct{})}
	entered := drain.entered
	core.RegisterSolver("test-drain", func() core.Solver { return drain })

	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(context.Background(),
			[]string{"-addr", "127.0.0.1:0", "-shutdown-grace", "10s"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	req := server.InstanceRequest{
		Database:  testDB,
		Queries:   "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		Deletions: "Q4(John, TKDE, XML)",
		Solver:    "test-drain",
		Timeout:   "10s",
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		body   []byte
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(fmt.Sprintf("http://%s/solve", addr), "application/json", bytes.NewReader(raw))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resCh <- result{status: resp.StatusCode, body: buf.Bytes()}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the solver")
	}

	// Deliver a real SIGTERM; signal.NotifyContext inside run catches it.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The server is now draining. New connections should be refused once
	// Shutdown closes the listener, but the in-flight request must survive:
	// release it and verify it completed normally.
	time.Sleep(100 * time.Millisecond)
	select {
	case r := <-resCh:
		t.Fatalf("in-flight request finished during drain before release: %+v", r)
	default:
	}
	close(drain.release)

	select {
	case r := <-resCh:
		if r.err != nil {
			t.Fatalf("in-flight request killed by shutdown: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request status = %d: %s", r.status, r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v after graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit after draining")
	}
}

// TestRunFlagErrors: bad flags fail fast instead of starting a server.
func TestRunFlagErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.256.256.256:99999"}, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
	if err := run(context.Background(), []string{"-pprof"}, nil); err == nil {
		t.Fatal("-pprof without -ops-addr accepted")
	}
	// A broken policy file must abort startup, not run permissive.
	bad := t.TempDir() + "/policy.json"
	if err := os.WriteFile(bad, []byte(`{"tenants": [{"name": ""}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-policy", bad}, nil); err == nil {
		t.Fatal("invalid policy file accepted")
	}
	if err := run(context.Background(), []string{"-policy", "/nonexistent/policy.json"}, nil); err == nil {
		t.Fatal("missing policy file accepted")
	}
}

// postSolve sends one solve with an optional tenant header and returns the
// status code.
func postSolve(t *testing.T, addr, tenant, solver string) int {
	t.Helper()
	req := server.InstanceRequest{
		Database:  testDB,
		Queries:   "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		Deletions: "Q4(John, TKDE, XML)",
		Solver:    solver,
		Timeout:   "5s",
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, fmt.Sprintf("http://%s/solve", addr), bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set("X-Delprop-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPolicyFileAndSIGHUPReload: -policy loads tenant limits at startup and
// SIGHUP swaps in the rewritten file without a restart; a fault-solver
// request proves -fault-solvers mounted the chaos registry.
func TestPolicyFileAndSIGHUPReload(t *testing.T) {
	path := t.TempDir() + "/policy.json"
	// rl gets a one-shot bucket that effectively never refills.
	if err := os.WriteFile(path,
		[]byte(`{"tenants": [{"name": "rl", "ratePerSec": 0.0001, "burst": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(context.Background(),
			[]string{"-addr", "127.0.0.1:0", "-shutdown-grace", "5s", "-policy", path, "-fault-solvers"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	if status := postSolve(t, addr, "rl", ""); status != http.StatusOK {
		t.Fatalf("first rl request status = %d", status)
	}
	if status := postSolve(t, addr, "rl", ""); status != http.StatusTooManyRequests {
		t.Fatalf("over-rate rl request status = %d, want 429", status)
	}

	// -fault-solvers mounted the chaos registry: an injected panic becomes
	// a contained 500.
	if status := postSolve(t, addr, "", "chaos-panic"); status != http.StatusInternalServerError {
		t.Fatalf("chaos-panic status = %d, want 500", status)
	}

	// Rewrite the policy (no rate limit) and reload via SIGHUP.
	if err := os.WriteFile(path, []byte(`{"tenants": [{"name": "rl"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if status := postSolve(t, addr, "rl", ""); status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reload never took effect; rl still rate-limited")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The reloaded policy holds: several back-to-back requests all pass.
	for i := 0; i < 3; i++ {
		if status := postSolve(t, addr, "rl", ""); status != http.StatusOK {
			t.Fatalf("post-reload request %d status = %d", i, status)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// TestSLOBreachObservabilityChain is the end-to-end acceptance path: a
// chaos solver drives failures into the rolling windows, the SLO
// watchdog publishes slo_breach on /events, /debug/series shows the
// windowed regression, and the postmortem bundle the event names carries
// the correlated trace, stats and event history for that request.
func TestSLOBreachObservabilityChain(t *testing.T) {
	sloPath := t.TempDir() + "/slo.json"
	sloDoc := `{"rules": [{"name": "solve-failures", "window": "1m", "max": 0,
	  "value": {"metric": "delprop_solves_total", "stat": "delta",
	    "match": {"outcome": ["error", "timeout", "panic", "unstoppable"]}}}]}`
	if err := os.WriteFile(sloPath, []byte(sloDoc), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-shutdown-grace", "5s", "-fault-solvers",
			"-series-interval", "50ms", "-series-window", "2m",
			"-slo", sloPath, "-breaker-threshold", "100"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	// Subscribe to the breach stream before driving any failures.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	sseReq, err := http.NewRequestWithContext(sseCtx, http.MethodGet,
		fmt.Sprintf("http://%s/events?type=slo_breach", addr), nil)
	if err != nil {
		t.Fatal(err)
	}
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	evCh := make(chan telemetry.Event, 4)
	go func() {
		defer sseResp.Body.Close()
		_ = telemetry.ReadSSE(sseResp.Body, func(m telemetry.SSEMessage) error {
			if m.Name != "slo_breach" {
				return nil // heartbeats and stream control
			}
			var ev telemetry.Event
			if err := json.Unmarshal([]byte(m.Data), &ev); err != nil {
				return nil
			}
			select {
			case evCh <- ev:
			default:
			}
			return nil
		})
	}()

	// Drive chaos failures until the watchdog trips (two ~50ms ticks must
	// bracket at least one failed solve).
	var breach telemetry.Event
	deadline := time.After(15 * time.Second)
	for breach.Type == "" {
		select {
		case breach = <-evCh:
		case <-deadline:
			t.Fatal("no slo_breach event within 15s of continuous failures")
		default:
			if status := postSolve(t, addr, "", "chaos-panic"); status != http.StatusInternalServerError {
				t.Fatalf("chaos-panic status = %d, want 500", status)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	sseCancel()

	if got := breach.Fields.Get("rule"); got != "solve-failures" {
		t.Fatalf("breach rule = %v, want solve-failures", got)
	}
	if breach.RequestID == "" {
		t.Fatal("breach event carries no correlated request id")
	}
	pmID, _ := breach.Fields.Get("postmortemId").(string)
	if pmID == "" {
		t.Fatalf("breach event names no postmortem: %+v", breach.Fields)
	}

	// The named bundle reconstructs the failing request: trace, stats,
	// admission decision and its journaled event history.
	var pm server.Postmortem
	getDaemonJSON(t, addr, "/debug/postmortems/"+pmID, &pm)
	if pm.Kind != "slo_breach" || pm.Breach == nil || pm.Breach.Rule != "solve-failures" {
		t.Fatalf("bundle = kind %q breach %+v", pm.Kind, pm.Breach)
	}
	if pm.RequestID != breach.RequestID {
		t.Fatalf("bundle request %q != breach request %q", pm.RequestID, breach.RequestID)
	}
	if pm.Outcome != "panic" {
		t.Fatalf("bundle outcome = %q, want panic", pm.Outcome)
	}
	if pm.Trace == nil || pm.TraceID == 0 {
		t.Errorf("bundle lacks the correlated trace (id %d)", pm.TraceID)
	}
	if pm.Stats == nil {
		t.Error("bundle lacks the stats snapshot")
	}
	if pm.Admission == nil {
		t.Error("bundle lacks the admission decision")
	}
	if len(pm.Events) == 0 {
		t.Fatal("bundle lacks the correlated event history")
	}
	for _, ev := range pm.Events {
		if ev.RequestID != pm.RequestID {
			t.Fatalf("bundle event for foreign request: %+v", ev)
		}
	}

	// The listing names the same bundle.
	var list server.PostmortemsResponse
	getDaemonJSON(t, addr, "/debug/postmortems", &list)
	found := false
	for _, sum := range list.Postmortems {
		if sum.ID == pmID && sum.Rule == "solve-failures" {
			found = true
		}
	}
	if !found {
		t.Fatalf("listing lacks %s: %+v", pmID, list.Postmortems)
	}

	// The rolling series show the regression the watchdog reacted to.
	var set telemetry.SeriesSetJSON
	getDaemonJSON(t, addr, "/debug/series?metric=delprop_solves_total&window=1m", &set)
	var panicDelta float64
	for _, s := range set.Series {
		if s.Labels["outcome"] == "panic" {
			if agg, ok := s.Windows["1m"]; ok && agg.Delta != nil {
				panicDelta += *agg.Delta
			}
		}
	}
	if panicDelta < 1 {
		t.Fatalf("1m panic-outcome delta = %v, want >= 1", panicDelta)
	}

	// The watchdog's own standing page agrees.
	var slo server.SLOResponse
	getDaemonJSON(t, addr, "/debug/slo", &slo)
	if len(slo.Rules) != 1 || !slo.Rules[0].Breached {
		t.Fatalf("slo standings = %+v, want the rule breached", slo.Rules)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v after context cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not exit after context cancel")
	}
}

// getDaemonJSON fetches one JSON endpoint from the test daemon.
func getDaemonJSON(t *testing.T, addr, path string, v any) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, buf.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}
