package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delprop/internal/telemetry"
)

// Rolling-series, SLO-watchdog and flight-recorder suite: the sampler is
// driven by hand (Server.Sampler().Tick()) so the tests control exactly
// which solves land between which samples.

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

// TestSeriesEndpoint: /debug/series serves windowed aggregates whose
// counter deltas reflect exactly the solves landed between ticks.
func TestSeriesEndpoint(t *testing.T) {
	app := NewHandler(Config{})
	srv := httptest.NewServer(app)
	defer srv.Close()

	// The first solve births the ok-outcome series; the tick pair around
	// the second solve brackets a measurable delta.
	resp, body := post(t, srv, "/solve", solveReq("", ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, body)
	}
	app.Sampler().Tick()
	resp, body = post(t, srv, "/solve", solveReq("", ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second solve status = %d: %s", resp.StatusCode, body)
	}
	app.Sampler().Tick()
	app.Sampler().Tick()

	var set telemetry.SeriesSetJSON
	getJSON(t, srv, "/debug/series", &set)
	if set.Ticks != 3 {
		t.Fatalf("ticks = %d, want 3", set.Ticks)
	}
	if len(set.Windows) != 3 || set.Windows[0] != "1m" || set.Windows[2] != "15m" {
		t.Fatalf("default windows = %v, want [1m 5m 15m]", set.Windows)
	}
	if len(set.Series) == 0 {
		t.Fatal("no series sampled")
	}
	var solveDelta float64
	for _, s := range set.Series {
		if s.Name == metricSolvesTotal && s.Labels["outcome"] == "ok" {
			if agg, ok := s.Windows["1m"]; ok && agg.Delta != nil {
				solveDelta += *agg.Delta
			}
		}
	}
	if solveDelta < 1 {
		t.Fatalf("ok-solve 1m delta = %v, want >= 1", solveDelta)
	}

	// Metric filtering narrows the payload to one family.
	var filtered telemetry.SeriesSetJSON
	getJSON(t, srv, "/debug/series?metric="+metricSolvesTotal, &filtered)
	if len(filtered.Series) == 0 {
		t.Fatal("metric filter dropped everything")
	}
	for _, s := range filtered.Series {
		if s.Name != metricSolvesTotal {
			t.Fatalf("metric filter leaked %q", s.Name)
		}
	}

	// An explicit window list replaces the defaults.
	var custom telemetry.SeriesSetJSON
	getJSON(t, srv, "/debug/series?window=30s,2m", &custom)
	if len(custom.Windows) != 2 || custom.Windows[0] != "30s" || custom.Windows[1] != "2m" {
		t.Fatalf("custom windows = %v, want [30s 2m]", custom.Windows)
	}
}

// TestSeriesWindowValidation: malformed or over-retention windows are
// 400s, not silent defaults.
func TestSeriesWindowValidation(t *testing.T) {
	app := NewHandler(Config{SeriesMaxWindow: time.Minute})
	srv := httptest.NewServer(app)
	defer srv.Close()

	for _, q := range []string{"window=soon", "window=-5s", "window=0s", "window=5m", "window=,"} {
		resp, err := http.Get(srv.URL + "/debug/series?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}

	// With retention under the default windows, the served defaults clip to
	// the retention instead of advertising unfillable windows.
	var set telemetry.SeriesSetJSON
	getJSON(t, srv, "/debug/series", &set)
	if len(set.Windows) != 1 || set.Windows[0] != "1m" {
		t.Fatalf("clipped default windows = %v, want [1m]", set.Windows)
	}

	short := NewHandler(Config{SeriesMaxWindow: 30 * time.Second})
	srvShort := httptest.NewServer(short)
	defer srvShort.Close()
	getJSON(t, srvShort, "/debug/series", &set)
	if len(set.Windows) != 1 || set.Windows[0] != "30s" {
		t.Fatalf("sub-minute retention windows = %v, want [30s]", set.Windows)
	}
}

// TestRuntimeGaugesOnTick: the sampler tick refreshes the process gauges,
// so /debug/series carries live goroutine/heap/uptime values without a
// /metrics scrape ever happening.
func TestRuntimeGaugesOnTick(t *testing.T) {
	app := NewHandler(Config{})
	srv := httptest.NewServer(app)
	defer srv.Close()

	app.Sampler().Tick()
	var set telemetry.SeriesSetJSON
	getJSON(t, srv, "/debug/series?metric="+metricGoroutines+"&window=1m", &set)
	if len(set.Series) != 1 {
		t.Fatalf("goroutine gauge not sampled: %+v", set.Series)
	}
	agg := set.Series[0].Windows["1m"]
	if agg.Last == nil || *agg.Last < 1 {
		t.Fatalf("goroutine gauge last = %+v, want >= 1", agg.Last)
	}
	getJSON(t, srv, "/debug/series?metric="+metricHeapInuse+"&window=1m", &set)
	if len(set.Series) != 1 || set.Series[0].Windows["1m"].Last == nil || *set.Series[0].Windows["1m"].Last <= 0 {
		t.Fatal("heap gauge not sampled on tick")
	}
}

// TestRetryAfterPrefersRollingWindow: Retry-After derives from the 1m
// rolling latency window when it has data, so one historic slow spell
// stops inflating backoff hints forever; without ticks it falls back to
// the lifetime histogram.
func TestRetryAfterPrefersRollingWindow(t *testing.T) {
	app := NewHandler(Config{})

	// A historic slow spell dominates the lifetime histogram.
	for i := 0; i < 20; i++ {
		app.api.latencyAll.Observe(45)
	}
	if got := app.api.retryAfterSeconds(); got < 30 {
		t.Fatalf("lifetime fallback retry-after = %d, want the slow regime's p90 (>= 30)", got)
	}

	// The rolling window sees only the recent fast regime.
	app.Sampler().Tick()
	for i := 0; i < 20; i++ {
		app.api.latencyAll.Observe(0.05)
	}
	app.Sampler().Tick()
	if got := app.api.retryAfterSeconds(); got != 1 {
		t.Fatalf("windowed retry-after = %d, want 1 (recent p90 is fast)", got)
	}
}

// TestPostmortemCaptureOnSolveError: a panicking solver leaves a full
// flight-recorder bundle behind — request id, stats, admission decision,
// correlated event history — served by /debug/postmortems/{id}.
func TestPostmortemCaptureOnSolveError(t *testing.T) {
	registerFaultSolvers()
	app := NewHandler(Config{})
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, body := post(t, srv, "/solve", solveReq("", "test-faulty-panic"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic solve status = %d: %s", resp.StatusCode, body)
	}
	reqID := decodeErr(t, body).RequestID
	if reqID == "" {
		t.Fatal("panic response lacks a request id")
	}

	var list PostmortemsResponse
	getJSON(t, srv, "/debug/postmortems", &list)
	if len(list.Postmortems) != 1 {
		t.Fatalf("postmortems = %+v, want exactly one", list.Postmortems)
	}
	sum := list.Postmortems[0]
	if sum.Kind != postmortemSolveError || sum.RequestID != reqID || sum.Outcome != "panic" {
		t.Fatalf("postmortem summary = %+v", sum)
	}

	var pm Postmortem
	getJSON(t, srv, "/debug/postmortems/"+sum.ID, &pm)
	if pm.Solver == "" || pm.RequestID != reqID {
		t.Fatalf("bundle identity = %+v", pm)
	}
	if pm.TraceID == 0 || pm.Trace == nil {
		t.Errorf("bundle lacks the correlated trace: id=%d trace=%v", pm.TraceID, pm.Trace)
	}
	if pm.Stats == nil {
		t.Error("bundle lacks a stats snapshot")
	}
	if pm.Admission == nil {
		t.Error("bundle lacks the admission decision")
	}
	if pm.Goroutines <= 0 || pm.HeapInuseBytes == 0 {
		t.Errorf("bundle lacks process vitals: goroutines=%d heap=%d", pm.Goroutines, pm.HeapInuseBytes)
	}
	if len(pm.Events) == 0 {
		t.Fatal("bundle lacks the correlated event history")
	}
	for _, ev := range pm.Events {
		if ev.RequestID != reqID {
			t.Fatalf("bundle event for foreign request: %+v", ev)
		}
	}
	var sawStart bool
	for _, ev := range pm.Events {
		if ev.Type == eventSolveStart {
			sawStart = true
		}
	}
	if !sawStart {
		t.Fatalf("bundle events lack %s: %+v", eventSolveStart, pm.Events)
	}

	resp, err := http.Get(srv.URL + "/debug/postmortems/pm-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing bundle status = %d, want 404", resp.StatusCode)
	}
}

// TestPostmortemDisabled: negative capacity turns the recorder off
// entirely — errors capture nothing and the listing stays empty.
func TestPostmortemDisabled(t *testing.T) {
	registerFaultSolvers()
	app := NewHandler(Config{PostmortemCapacity: -1})
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, _ := post(t, srv, "/solve", solveReq("", "test-faulty-panic"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic solve status = %d", resp.StatusCode)
	}
	var list PostmortemsResponse
	getJSON(t, srv, "/debug/postmortems", &list)
	if len(list.Postmortems) != 0 {
		t.Fatalf("disabled recorder captured %+v", list.Postmortems)
	}
}

// TestSLOBreachChain: the full acceptance chain in-process — failed
// solves push a windowed counter over its SLO bound, the watchdog
// publishes slo_breach with a postmortem id, the breach counter
// increments, and the bundle correlates back to the failing request.
func TestSLOBreachChain(t *testing.T) {
	registerFaultSolvers()
	slo, err := telemetry.ParseSLOConfig([]byte(`{"rules": [
	  {"name": "solve-failures", "window": "1m", "max": 0,
	   "value": {"metric": "` + metricSolvesTotal + `", "stat": "delta",
	     "match": {"outcome": ["error", "timeout", "panic", "unstoppable"]}}}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	app := NewHandler(Config{SLO: slo})
	srv := httptest.NewServer(app)
	defer srv.Close()

	sub := app.Events().Subscribe(telemetry.Filter{Types: map[string]bool{eventSLOBreach: true}}, 16)
	defer sub.Close()

	// First failure births the panic-outcome series; the next tick pair
	// brackets the second failure so the windowed delta goes positive.
	resp, body := post(t, srv, "/solve", solveReq("", "test-faulty-panic"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first panic solve status = %d: %s", resp.StatusCode, body)
	}
	app.Sampler().Tick()
	resp, body = post(t, srv, "/solve", solveReq("", "test-faulty-panic"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second panic solve status = %d: %s", resp.StatusCode, body)
	}
	reqID := decodeErr(t, body).RequestID
	app.Sampler().Tick()

	evs := sub.Drain(0)
	if len(evs) != 1 {
		t.Fatalf("slo_breach events = %+v, want exactly one", evs)
	}
	ev := evs[0]
	if ev.Fields.Get("rule") != "solve-failures" {
		t.Fatalf("breach event fields = %+v", ev.Fields)
	}
	if ev.RequestID != reqID {
		t.Fatalf("breach correlated to %q, want the newest failure %q", ev.RequestID, reqID)
	}
	pmID, _ := ev.Fields.Get("postmortemId").(string)
	if pmID == "" {
		t.Fatalf("breach event lacks a postmortemId: %+v", ev.Fields)
	}

	if got := app.Metrics().Counter(metricSLOBreaches, "", telemetry.Labels{"rule": "solve-failures"}).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", metricSLOBreaches, got)
	}

	// The bundle the event names carries the breach and the correlated
	// failing solve.
	var pm Postmortem
	getJSON(t, srv, "/debug/postmortems/"+pmID, &pm)
	if pm.Kind != postmortemSLOBreach || pm.Breach == nil || pm.Breach.Rule != "solve-failures" {
		t.Fatalf("breach bundle = kind %q breach %+v", pm.Kind, pm.Breach)
	}
	if pm.RequestID != reqID || pm.Outcome != "panic" {
		t.Fatalf("breach bundle correlation = req %q outcome %q, want %q/panic", pm.RequestID, pm.Outcome, reqID)
	}
	if len(pm.Events) == 0 {
		t.Fatal("breach bundle lacks event history")
	}

	// /debug/slo reports the standing rule as breached.
	var status SLOResponse
	getJSON(t, srv, "/debug/slo", &status)
	if len(status.Rules) != 1 || !status.Rules[0].Breached {
		t.Fatalf("slo status = %+v, want the rule breached", status.Rules)
	}

	// Steady breach on later ticks must not re-fire the transition.
	app.Sampler().Tick()
	if extra := sub.Drain(0); len(extra) != 0 {
		t.Fatalf("steady breach re-published: %+v", extra)
	}
}

// TestSlowSolveThresholdFromSLO: with no explicit threshold, the recorder
// derives "too slow" from the strictest SLO latency bound, and captures
// successful solves that run over it.
func TestSlowSolveThresholdFromSLO(t *testing.T) {
	slo, err := telemetry.ParseSLOConfig([]byte(`{"rules": [
	  {"name": "p99-loose", "window": "1m", "max": 2.0,
	   "value": {"metric": "` + metricSolveDuration + `", "stat": "p99"}},
	  {"name": "p95-strict", "window": "1m", "max": 0.000001,
	   "value": {"metric": "` + metricAdmissionLatency + `", "stat": "p95"}}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := resolveSlowSolve(Config{SLO: slo}); got != time.Microsecond {
		t.Fatalf("derived slow-solve threshold = %v, want 1µs (the strictest bound)", got)
	}
	if got := resolveSlowSolve(Config{SLO: slo, PostmortemSlowSolve: time.Second}); got != time.Second {
		t.Fatalf("explicit threshold = %v, want 1s", got)
	}
	if got := resolveSlowSolve(Config{SLO: slo, PostmortemSlowSolve: -1}); got != 0 {
		t.Fatalf("negative threshold = %v, want disabled", got)
	}

	// End to end: every successful solve exceeds a 1µs bound, so it lands
	// in the recorder as slow_solve.
	app := NewHandler(Config{SLO: slo})
	srv := httptest.NewServer(app)
	defer srv.Close()
	resp, body := post(t, srv, "/solve", solveReq("", ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, body)
	}
	var list PostmortemsResponse
	getJSON(t, srv, "/debug/postmortems", &list)
	if len(list.Postmortems) != 1 || list.Postmortems[0].Kind != postmortemSlowSolve {
		t.Fatalf("postmortems = %+v, want one slow_solve capture", list.Postmortems)
	}
}

// TestPostmortemConcurrentSolves: mixed success/failure traffic with the
// sampler ticking concurrently leaves the recorder consistent (run under
// -race to prove the locking).
func TestPostmortemConcurrentSolves(t *testing.T) {
	registerFaultSolvers()
	app := NewHandler(Config{BreakerThreshold: -1})
	srv := httptest.NewServer(app)
	defer srv.Close()

	const workers, perWorker = 8, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				app.Sampler().Tick()
			}
		}
	}()
	errCount := 0
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				solver := ""
				if (w+i)%2 == 0 {
					solver = "test-faulty-panic"
				}
				resp, err := http.Post(srv.URL+"/solve", "application/json",
					strings.NewReader(mustJSON(solveReq("", solver))))
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusInternalServerError {
					mu.Lock()
					errCount++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)

	var list PostmortemsResponse
	getJSON(t, srv, "/debug/postmortems", &list)
	captured := 0
	for _, pm := range list.Postmortems {
		if pm.Kind == postmortemSolveError {
			captured++
		}
	}
	if captured != errCount {
		t.Fatalf("captured %d solve_error bundles for %d failures", captured, errCount)
	}
	// Every bundle must still resolve individually.
	for _, pm := range list.Postmortems {
		var full Postmortem
		resp := getJSON(t, srv, "/debug/postmortems/"+pm.ID, &full)
		if resp.StatusCode != http.StatusOK || full.ID != pm.ID {
			t.Fatalf("bundle %s unreadable: %d", pm.ID, resp.StatusCode)
		}
	}
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("mustJSON: %v", err))
	}
	return string(raw)
}

// TestDebugSeriesFakeClock pins /debug/series and /debug/slo under a fake
// clock ticking one second apart: counter, gauge and histogram windows
// (last sample minus baseline for counters and histograms), a labelled
// family whose second series is born mid-flight, the ?metric= prefix and
// exact filters, and the watchdog's standings. Series are compared sorted
// by (name, labels), so the test does not depend on the listing order.
func TestDebugSeriesFakeClock(t *testing.T) {
	slo, err := telemetry.ParseSLOConfig([]byte(`{"rules": [
	  {"name": "jobs-per-queue", "window": "1m", "max": 5, "by": "queue",
	   "value": {"metric": "fake_jobs_total", "stat": "delta"}},
	  {"name": "depth", "window": "10s", "max": 3,
	   "value": {"metric": "fake_depth", "stat": "max"}},
	  {"name": "latency-p95", "window": "1m", "max": 0.5,
	   "value": {"metric": "fake_latency_seconds", "stat": "p95"}}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	app := NewHandler(Config{SLO: slo})
	// A sampler over the same registry, read through a fake clock, with
	// the watchdog rewired onto it. The handler's own sampler never ticks.
	var clock atomic.Int64
	clock.Store(time.Unix(1_700_000_000, 0).UnixNano())
	a := app.api
	a.sampler = telemetry.NewSampler(a.metrics, telemetry.SamplerConfig{
		Interval:  time.Second,
		MaxWindow: time.Minute,
		Clock:     func() time.Time { return time.Unix(0, clock.Load()) },
	})
	a.watchdog = telemetry.NewWatchdog(a.sampler, a.cfg.SLO, a.onSLOBreach)
	a.sampler.OnTick(func(now time.Time) { a.watchdog.Evaluate(now) })
	tick := func() {
		clock.Add(int64(time.Second))
		app.Sampler().Tick()
	}
	srv := httptest.NewServer(app)
	defer srv.Close()

	reg := app.Metrics()
	jobsA := reg.Counter("fake_jobs_total", "test", telemetry.Labels{"queue": "a"})
	depth := reg.Gauge("fake_depth", "test", nil)
	// Dyadic observations keep every windowed sum exact.
	lat := reg.Histogram("fake_latency_seconds", "test", []float64{0.1, 0.25, 0.5, 1}, nil)
	for i, v := range []float64{0.125, 0.25, 0.75, 2} { // T1..T4
		jobsA.Add(2)
		depth.Set(float64(i))
		lat.Observe(v)
		tick()
	}
	jobsB := reg.Counter("fake_jobs_total", "test", telemetry.Labels{"queue": "b"})
	jobsB.Add(3)
	depth.Set(1)
	tick() // T5: queue b's first sample
	jobsB.Add(4)
	jobsA.Add(1)
	lat.Observe(0.5)
	tick() // T6

	render := func(set telemetry.SeriesSetJSON) []string {
		var out []string
		for _, s := range set.Series {
			var labels []string
			for k, v := range s.Labels {
				labels = append(labels, k+"="+v)
			}
			sort.Strings(labels)
			for _, w := range set.Windows {
				agg, ok := s.Windows[w]
				if !ok {
					continue
				}
				line := fmt.Sprintf("%s{%s} %s %s samples=%d", s.Name, strings.Join(labels, ","), s.Kind, w, agg.Samples)
				for _, f := range []struct {
					name string
					v    *float64
				}{{"delta", agg.Delta}, {"rate", agg.Rate}, {"last", agg.Last}, {"min", agg.Min},
					{"max", agg.Max}, {"avg", agg.Avg}, {"sum", agg.Sum}, {"p50", agg.P50},
					{"p95", agg.P95}, {"p99", agg.P99}} {
					if f.v != nil {
						line += fmt.Sprintf(" %s=%g", f.name, *f.v)
					}
				}
				if agg.Count != nil {
					line += fmt.Sprintf(" count=%d", *agg.Count)
				}
				out = append(out, line)
			}
		}
		sort.Strings(out)
		return out
	}
	check := func(query string, want []string) {
		t.Helper()
		var set telemetry.SeriesSetJSON
		if resp := getJSON(t, srv, "/debug/series?"+query, &set); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/series?%s: status %d", query, resp.StatusCode)
		}
		if set.Ticks != 6 || set.Interval != "1s" || !set.Now.Equal(time.Unix(1_700_000_006, 0)) {
			t.Errorf("%s: meta = ticks %d interval %s now %v, want 6, 1s, T6", query, set.Ticks, set.Interval, set.Now)
		}
		got := render(set)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("GET /debug/series?%s:\n got %s\nwant %s", query, strings.Join(got, "\n     "), strings.Join(want, "\n     "))
		}
	}
	// At T6 the 3s window holds T4..T6 plus the T3 baseline; the 1m window
	// holds the whole history. Queue b has samples at T5 and T6 only.
	check("metric=fake_*&window=3s,1m", []string{
		"fake_depth{} gauge 1m samples=6 last=1 min=0 max=3 avg=1.3333333333333333",
		"fake_depth{} gauge 3s samples=3 last=1 min=1 max=3 avg=1.6666666666666667",
		"fake_jobs_total{queue=a} counter 1m samples=6 delta=7 rate=1.4",
		"fake_jobs_total{queue=a} counter 3s samples=4 delta=3 rate=1",
		"fake_jobs_total{queue=b} counter 1m samples=2 delta=4 rate=4",
		"fake_jobs_total{queue=b} counter 3s samples=2 delta=4 rate=4",
		"fake_latency_seconds{} histogram 1m samples=6 rate=0.8 sum=3.5 p50=0.5 p95=1 p99=1 count=4",
		"fake_latency_seconds{} histogram 3s samples=4 rate=0.6666666666666666 sum=2.5 p50=0.5 p95=1 p99=1 count=2",
	})
	check("metric=fake_jobs_total&window=3s", []string{
		"fake_jobs_total{queue=a} counter 3s samples=4 delta=3 rate=1",
		"fake_jobs_total{queue=b} counter 3s samples=2 delta=4 rate=4",
	})
	check("metric=fake_nothing*", nil)

	var status SLOResponse
	getJSON(t, srv, "/debug/slo", &status)
	var got []string
	for _, st := range status.Rules {
		got = append(got, fmt.Sprintf("%s[%s] %s value=%g breached=%v evaluated=%v",
			st.Rule, st.Target, st.Window, st.Value, st.Breached, st.Evaluated))
	}
	want := []string{
		"depth[] 10s value=3 breached=false evaluated=true",
		"jobs-per-queue[a] 1m value=7 breached=true evaluated=true",
		"jobs-per-queue[b] 1m value=4 breached=false evaluated=true",
		"latency-p95[] 1m value=1 breached=true evaluated=true",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/debug/slo:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
}
