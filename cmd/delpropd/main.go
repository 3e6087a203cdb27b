// Command delpropd serves the deletion-propagation library over HTTP.
//
// Usage:
//
//	delpropd -addr :8080 [-solve-timeout 30s] [-max-solve-timeout 2m]
//	         [-max-body 4194304] [-max-concurrent 64] [-shutdown-grace 30s]
//	         [-max-batch-items 64] [-max-batch-workers 4]
//	         [-ops-addr :9090] [-pprof] [-drain-delay 0s]
//	         [-policy policy.json] [-shed-queue-depth 16]
//	         [-shed-queue-wait 500ms] [-degraded-lanes 4]
//	         [-breaker-threshold 5] [-breaker-cooldown 30s]
//	         [-events-buffer 256] [-events-heartbeat 15s]
//	         [-series-interval 5s] [-series-window 15m] [-slo slo.json]
//	         [-postmortems 64] [-postmortems-slow 0s]
//	         [-session-ttl 15m] [-max-sessions 64]
//	         [-fault-solvers]
//
// Endpoints (JSON; see internal/server):
//
//	POST /solve       {database, queries, deletions, solver?, weights?, timeout?, tenant?}
//	POST /solve/batch {items: [...], timeout?, workers?}
//	POST /classify    {database, queries}
//	POST /lineage     {database, queries, tuple}
//	POST /resilience  {database, queries, resilienceBudget?, timeout?}
//	POST /sessions    {database, queries, tenant?} → warm session id
//	POST /sessions/{id}/solve {deletions, solver?, weights?, timeout?, tenant?}
//	DELETE /sessions/{id}
//	GET  /healthz
//	GET  /metrics
//	GET  /debug/traces
//	GET  /debug/breakers
//	GET  /debug/series           (rolling 1m/5m/15m windowed aggregates)
//	GET  /debug/slo              (SLO watchdog rule standings)
//	GET  /debug/postmortems      (flight-recorder bundle listing)
//	GET  /debug/postmortems/{id} (one full postmortem bundle)
//	GET  /debug/sessions         (resident warm sessions with hit counts)
//	GET  /events      (Server-Sent Events: live solve/admission/breaker stream)
//
// GET /events streams the live telemetry bus (solve lifecycle, phase
// timings, incumbents, race members, admission decisions, breaker
// transitions) as Server-Sent Events with ?tenant=/?solver=/?type=
// filters; "delprop tail" is the reference consumer. Publishing is
// non-blocking: a stalled subscriber sheds its oldest buffered events
// (-events-buffer sets the per-subscriber ring size) and idle streams
// carry -events-heartbeat keep-alives reporting the drop count.
//
// A rolling time-series sampler records every metric series each
// -series-interval tick, keeping -series-window of history per series;
// GET /debug/series serves windowed rates, gauge stats and latency
// quantiles, and "delprop top" renders them as a live terminal
// dashboard. With -slo set, an SLO watchdog evaluates the file's rules
// (per-solver latency quantiles, error-rate ratios, event-drop ratios,
// breaker-open dwell, quality-ratio bounds; grammar in docs/FORMATS.md)
// against those windows on every tick: breaches publish slo_breach
// events, increment delprop_slo_breaches_total and capture a postmortem
// bundle — the request's trace, stats, event history, admission outcome,
// breaker states and process counters — into a bounded flight-recorder
// ring (-postmortems) served at GET /debug/postmortems. Hard solve
// failures and solves slower than -postmortems-slow capture bundles too.
//
// POST /sessions registers an instance once and returns a session id;
// POST /sessions/{id}/solve then serves successive deletion requests
// against the warm state (parsed problem, materialized views, memoized
// classification and pivot forest) without re-parsing or
// re-materializing anything. Sessions idle out after -session-ttl (each
// warm solve extends the clock), at most -max-sessions stay resident
// (LRU eviction), and a background janitor sweeps expired entries.
// GET /debug/sessions lists what is warm. During drain, registrations and
// warm solves are refused while in-flight warm solves finish against
// their pinned entries. docs/OPERATIONS.md covers the lifecycle.
//
// With -ops-addr set, a second listener serves the operational surface
// (/metrics, /debug/traces, /debug/breakers, /events, /healthz, and
// /debug/pprof/* when -pprof is also set) so profiling and scraping never
// compete with public traffic.
//
// The server enforces per-request solve deadlines, request body limits,
// and tenant-aware admission control: -policy loads a JSON policy file
// (docs/FORMATS.md) attaching rate limits, concurrency quotas, deadline
// caps, solver allow-lists and priorities per tenant, and SIGHUP reloads
// it in place (a bad file keeps the previous policy). Saturation walks a
// graceful-degradation ladder — bounded queueing for high-priority
// tenants, forced downgrade to the cheap solver (responses carry
// degraded:true), then 429 with a Retry-After computed from live solve
// latency. Per-solver circuit breakers trip after consecutive
// panic/timeout/unstoppable outcomes and route traffic to the fallback
// solver while half-open probes test recovery. Solver panics become 500
// JSON responses, and in-flight solves drain on SIGINT/SIGTERM before
// exit; during the drain /healthz reports 503 "draining" so load
// balancers stop routing (-drain-delay holds the window open before
// Shutdown begins). Operational semantics — flags, the admission ladder,
// the graceful-shutdown sequence and the error-response taxonomy — are
// documented in docs/OPERATIONS.md; metric names and the trace schema are
// in docs/OBSERVABILITY.md.
//
// -fault-solvers additionally registers chaos solvers (chaos-flaky,
// chaos-block, chaos-panic, chaos-ignore) that misbehave on purpose;
// scripts/chaos_smoke.sh uses them to exercise the breaker and ladder
// end to end. Never set it in production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"delprop/internal/admission"
	"delprop/internal/core"
	"delprop/internal/server"
	"delprop/internal/telemetry"
)

func main() {
	if err := run(context.Background(), os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "delpropd:", err)
		os.Exit(1)
	}
}

// flakyFailures is how many times chaos-flaky panics before healing; the
// chaos smoke script pairs it with -breaker-threshold 3 so the breaker
// trips exactly when the solver runs out of failures.
const flakyFailures = 3

// flakySolver panics on its first flakyFailures calls, then delegates to
// the greedy solver forever after — a solver that "recovers", so the
// chaos smoke can watch a breaker trip, reroute, and close again through
// a half-open probe.
type flakySolver struct {
	mu    sync.Mutex
	calls int
}

func (f *flakySolver) Name() string { return "chaos-flaky" }

func (f *flakySolver) Solve(ctx context.Context, p *core.Problem) (*core.Solution, error) {
	f.mu.Lock()
	n := f.calls
	f.calls++
	f.mu.Unlock()
	if n < flakyFailures {
		panic(fmt.Sprintf("chaos-flaky: injected panic %d/%d", n+1, flakyFailures))
	}
	g := &core.Greedy{}
	return g.Solve(ctx, p)
}

var registerChaosOnce sync.Once

// registerChaosSolvers mounts the fault-injection solvers behind the
// -fault-solvers flag. One shared flaky instance keeps its call count
// across requests, which is the whole point.
func registerChaosSolvers() {
	registerChaosOnce.Do(func() {
		flaky := &flakySolver{}
		core.RegisterSolver("chaos-flaky", func() core.Solver { return flaky })
		core.RegisterSolver("chaos-block", func() core.Solver { return &core.Faulty{Mode: core.FaultBlock} })
		core.RegisterSolver("chaos-panic", func() core.Solver { return &core.Faulty{Mode: core.FaultPanic} })
		core.RegisterSolver("chaos-ignore", func() core.Solver {
			return &core.Faulty{Mode: core.FaultIgnoreCtx, Stall: 3 * time.Second}
		})
	})
}

// run starts the server and blocks until ctx is done or SIGINT/SIGTERM
// arrives, then drains in-flight requests within the grace period. ready,
// when non-nil, receives the bound listener address once the server
// accepts connections (tests use it to get the ephemeral port).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("delpropd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	solveTimeout := fs.Duration("solve-timeout", server.DefaultSolveTimeout, "default per-request solve deadline")
	maxSolveTimeout := fs.Duration("max-solve-timeout", server.DefaultMaxSolveTimeout, "cap on the request timeout field")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body bytes")
	maxConcurrent := fs.Int("max-concurrent", server.DefaultMaxConcurrent, "maximum concurrent compute requests before shedding with 429")
	maxResilience := fs.Int("max-resilience-budget", server.DefaultMaxResilienceLimit, "cap on the resilienceBudget request field")
	maxBatchItems := fs.Int("max-batch-items", server.DefaultMaxBatchItems, "cap on instances per POST /solve/batch request")
	maxBatchWorkers := fs.Int("max-batch-workers", server.DefaultMaxBatchWorkers, "cap on concurrent item solves inside one batch (and the default pool size)")
	shutdownGrace := fs.Duration("shutdown-grace", 30*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	opsAddr := fs.String("ops-addr", "", "listen address for the operational endpoints (/metrics, /debug/traces, /debug/breakers, /healthz; empty disables the second listener)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the ops listener (requires -ops-addr)")
	drainDelay := fs.Duration("drain-delay", 0, "how long to keep serving after flipping /healthz to 503 draining, so load balancers observe it before connections close")
	policyPath := fs.String("policy", "", "tenant admission policy file (JSON, docs/FORMATS.md); SIGHUP reloads it, empty runs the permissive default policy")
	shedQueueDepth := fs.Int("shed-queue-depth", server.DefaultShedQueueDepth, "bounded queue for high-priority tenants waiting out saturation (ladder rung 1)")
	shedQueueWait := fs.Duration("shed-queue-wait", server.DefaultShedQueueWait, "how long a queued high-priority request waits for a slot before falling down the ladder")
	degradedLanes := fs.Int("degraded-lanes", server.DefaultDegradedLanes, "concurrent downgraded solves the overload ladder may run (rung 2)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive hard solver failures (panic/timeout/unstoppable) that trip the solver's circuit breaker (0 = default, negative disables breakers)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "how long a tripped breaker stays open before half-open probes test recovery (0 = default)")
	eventBuffer := fs.Int("events-buffer", server.DefaultEventBuffer, "per-subscriber ring size for GET /events; a lagging consumer sheds its oldest buffered events")
	eventHeartbeat := fs.Duration("events-heartbeat", server.DefaultEventHeartbeat, "keep-alive interval for idle GET /events streams")
	seriesInterval := fs.Duration("series-interval", telemetry.DefaultSeriesInterval, "rolling time-series sampling tick behind GET /debug/series and the SLO watchdog")
	seriesWindow := fs.Duration("series-window", telemetry.DefaultSeriesWindow, "rolling time-series retention (the largest window /debug/series can answer)")
	sloPath := fs.String("slo", "", "SLO watchdog rules file (JSON, docs/FORMATS.md); breaches publish slo_breach events, bump delprop_slo_breaches_total and capture postmortems. Empty disables the watchdog")
	postmortems := fs.Int("postmortems", server.DefaultPostmortemCapacity, "postmortem flight-recorder ring size for GET /debug/postmortems (negative disables capture)")
	postmortemSlow := fs.Duration("postmortems-slow", 0, "successful solves at or over this duration also capture a postmortem (0 derives the strictest -slo latency bound, negative disables slow-solve capture)")
	sessionTTL := fs.Duration("session-ttl", 0, "idle lifetime of a warm session registered via POST /sessions; each warm solve extends it (0 = default)")
	maxSessions := fs.Int("max-sessions", 0, "cap on resident warm sessions; the least-recently-used idle session is evicted at capacity (0 = default)")
	faultSolvers := fs.Bool("fault-solvers", false, "register chaos solvers (chaos-flaky, chaos-block, chaos-panic, chaos-ignore) for fault-injection smoke tests; never in production")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *enablePprof && *opsAddr == "" {
		return errors.New("-pprof requires -ops-addr")
	}
	if *faultSolvers {
		registerChaosSolvers()
	}

	var engine *admission.Engine
	if *policyPath != "" {
		pol, err := admission.LoadPolicyFile(*policyPath)
		if err != nil {
			return err
		}
		engine = admission.NewEngine(pol)
	}

	var sloCfg telemetry.SLOConfig
	if *sloPath != "" {
		data, err := os.ReadFile(*sloPath)
		if err != nil {
			return fmt.Errorf("slo config: %w", err)
		}
		sloCfg, err = telemetry.ParseSLOConfig(data)
		if err != nil {
			return fmt.Errorf("slo config %s: %w", *sloPath, err)
		}
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	app := server.NewHandler(server.Config{
		DefaultSolveTimeout: *solveTimeout,
		MaxSolveTimeout:     *maxSolveTimeout,
		MaxBodyBytes:        *maxBody,
		MaxConcurrent:       *maxConcurrent,
		MaxResilienceBudget: *maxResilience,
		MaxBatchItems:       *maxBatchItems,
		MaxBatchWorkers:     *maxBatchWorkers,
		Admission:           engine,
		ShedQueueDepth:      *shedQueueDepth,
		ShedQueueWait:       *shedQueueWait,
		DegradedLanes:       *degradedLanes,
		BreakerThreshold:    *breakerThreshold,
		BreakerCooldown:     *breakerCooldown,
		EventBuffer:         *eventBuffer,
		EventHeartbeat:      *eventHeartbeat,
		SeriesInterval:      *seriesInterval,
		SeriesMaxWindow:     *seriesWindow,
		SLO:                 sloCfg,
		PostmortemCapacity:  *postmortems,
		PostmortemSlowSolve: *postmortemSlow,
		SessionTTL:          *sessionTTL,
		MaxSessions:         *maxSessions,
		Logger:              logger,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           app,
		ReadHeaderTimeout: 5 * time.Second,
		// ReadTimeout bounds slow request uploads; WriteTimeout must
		// outlast the largest admissible solve deadline or it would cut
		// off legitimate responses mid-solve.
		ReadTimeout:  30 * time.Second,
		WriteTimeout: *maxSolveTimeout + 30*time.Second,
		IdleTimeout:  2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			return fmt.Errorf("ops listener: %w", err)
		}
		opsSrv = &http.Server{
			Addr:              *opsAddr,
			Handler:           app.OpsHandler(*enablePprof),
			ReadHeaderTimeout: 5 * time.Second,
			// No WriteTimeout: pprof CPU profiles stream for their
			// requested duration.
		}
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "err", err)
			}
		}()
		logger.Info("delpropd ops listening", "addr", opsLn.Addr().String(), "pprof", *enablePprof)
	}

	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Drive the rolling time-series sampler (and with it the SLO
	// watchdog) for the daemon's lifetime; it stops with ctx at drain.
	go app.RunSampler(ctx)

	// Expire idle warm sessions in the background so a quiet registry
	// releases its memory without waiting for the next registration.
	go app.RunSessionJanitor(ctx)

	// SIGHUP hot-reloads the admission policy without dropping in-flight
	// quota accounting (tenants that keep their name keep their slots). A
	// file that fails to parse keeps the previous policy running.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
			}
			if *policyPath == "" {
				logger.Warn("SIGHUP received but no -policy file to reload")
				continue
			}
			pol, err := admission.LoadPolicyFile(*policyPath)
			if err != nil {
				logger.Error("policy reload failed; keeping the previous policy",
					"path", *policyPath, "err", err)
				continue
			}
			app.Admission().SetPolicy(pol)
			logger.Info("policy reloaded", "path", *policyPath, "tenants", len(pol.Tenants))
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Info("delpropd listening", "addr", ln.Addr().String())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills immediately
	// Flip health to 503 first so load balancers stop routing, then hold
	// the drain window open before refusing connections.
	app.SetDraining(true)
	logger.Info("draining: /healthz now 503", "drainDelay", *drainDelay, "grace", *shutdownGrace)
	if *drainDelay > 0 {
		timer := time.NewTimer(*drainDelay)
		select {
		case <-timer.C:
		case err := <-errCh:
			timer.Stop()
			return err
		}
	}
	logger.Info("shutting down; draining in-flight requests", "grace", *shutdownGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	shutdownErr := srv.Shutdown(drainCtx)
	if opsSrv != nil {
		// The ops listener has no long-lived requests; give it a moment.
		opsCtx, opsCancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = opsSrv.Shutdown(opsCtx)
		opsCancel()
	}
	if shutdownErr != nil {
		// The grace period expired with requests still in flight: cut the
		// remaining connections rather than hang forever.
		logger.Warn("grace period expired; closing remaining connections", "err", shutdownErr)
		_ = srv.Close()
		return shutdownErr
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}
