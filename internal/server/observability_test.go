package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"delprop/internal/telemetry"
)

// get fetches a path from the test server and returns status + body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// projectFreeSolve is a key-preserving, project-free instance routed to an
// explicit search solver so the nodes/incumbent counters provably move.
func projectFreeSolve() InstanceRequest {
	return InstanceRequest{
		Database:  fig1DB,
		Queries:   "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		Deletions: "Q4(John, TKDE, XML)",
		Solver:    "brute-force",
	}
}

func TestMetricsAfterSolve(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, body := post(t, srv, "/solve", projectFreeSolve())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats == nil || out.Stats.NodesExpanded == 0 {
		t.Fatalf("response stats = %+v, want nodes > 0", out.Stats)
	}
	if out.PhaseMs == nil {
		t.Fatal("response carries no phase timings")
	}
	for _, phase := range telemetry.Phases {
		if _, ok := out.PhaseMs[phase]; !ok {
			t.Errorf("phaseMs missing %q: %v", phase, out.PhaseMs)
		}
	}

	status, metrics := get(t, srv, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	for _, want := range []string{
		"# TYPE delprop_solve_duration_seconds histogram",
		`delprop_solve_duration_seconds_count{solver="brute-force"} 1`,
		"# TYPE delprop_solver_nodes_expanded_total counter",
		`delprop_solver_nodes_expanded_total{solver="brute-force"}`,
		`delprop_solver_incumbent_updates_total{solver="brute-force"}`,
		`delprop_solves_total{outcome="ok",solver="brute-force"} 1`,
		`delprop_http_requests_total{method="POST",path="/solve",status="200"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The scraped nodes counter matches the per-response stats.
	wantLine := `delprop_solver_nodes_expanded_total{solver="brute-force"} `
	found := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, wantLine) {
			found = true
			if got := strings.TrimPrefix(line, wantLine); got != jsonInt(out.Stats.NodesExpanded) {
				t.Errorf("scraped nodes = %s, response stats = %d", got, out.Stats.NodesExpanded)
			}
		}
	}
	if !found {
		t.Errorf("no nodes-expanded series in:\n%s", metrics)
	}
}

func jsonInt(n int64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestTracesAfterSolve(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	status, body := get(t, srv, "/debug/traces")
	if status != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", status)
	}
	var empty TracesResponse
	if err := json.Unmarshal([]byte(body), &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Traces) != 0 {
		t.Fatalf("traces before any solve = %d", len(empty.Traces))
	}

	if resp, b := post(t, srv, "/solve", projectFreeSolve()); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, b)
	}
	_, body = get(t, srv, "/debug/traces")
	var got TracesResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 1 {
		t.Fatalf("traces after one solve = %d, want 1", len(got.Traces))
	}
	tr := got.Traces[0]
	if tr.Name != "solve" {
		t.Errorf("trace name = %q", tr.Name)
	}
	if tr.Attrs["solver"] != "brute-force" || tr.Attrs["outcome"] != "ok" {
		t.Errorf("trace attrs = %v", tr.Attrs)
	}
	for _, a := range []string{"dbSize", "queries", "deltaSize", "requestId"} {
		if tr.Attrs[a] == "" {
			t.Errorf("trace missing attr %q: %v", a, tr.Attrs)
		}
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	if want := "parse,views,classify,solve,evaluate"; strings.Join(names, ",") != want {
		t.Errorf("span order = %v, want %s", names, want)
	}
}

// TestQualityRatioAccounting checks the runtime quality path: a
// key-preserving instance solved exactly yields objective == lower bound,
// so the response stats carry ratio 1 and the per-solver quality-ratio
// histogram records one observation at le="1".
func TestQualityRatioAccounting(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, body := post(t, srv, "/solve", projectFreeSolve())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats == nil || out.Stats.QualityRatio == nil {
		t.Fatalf("response stats carry no quality ratio: %+v", out.Stats)
	}
	if *out.Stats.QualityRatio != 1 {
		t.Errorf("exact solve quality ratio = %v, want 1", *out.Stats.QualityRatio)
	}
	if out.Stats.Objective == nil || out.Stats.LowerBound == nil {
		t.Errorf("stats missing objective/lower bound: %+v", out.Stats)
	}

	_, metrics := get(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE delprop_solve_quality_ratio histogram",
		`delprop_solve_quality_ratio_count{solver="brute-force"} 1`,
		`delprop_solve_quality_ratio_bucket{solver="brute-force",le="1"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBuildInfoAndRuntimeGauges checks the process-identity gauges are on
// /metrics from the first scrape.
func TestBuildInfoAndRuntimeGauges(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	status, metrics := get(t, srv, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	for _, want := range []string{
		"# TYPE delprop_build_info gauge",
		`delprop_build_info{goversion="`,
		"# TYPE delprop_process_uptime_seconds gauge",
		"delprop_process_uptime_seconds ",
		"# TYPE delprop_goroutines gauge",
		"delprop_goroutines ",
		"# TYPE delprop_heap_inuse_bytes gauge",
		"delprop_heap_inuse_bytes ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Goroutines and heap must be nonzero in a live process.
	for _, name := range []string{"delprop_goroutines ", "delprop_heap_inuse_bytes "} {
		for _, line := range strings.Split(metrics, "\n") {
			if strings.HasPrefix(line, name) && strings.TrimPrefix(line, name) == "0" {
				t.Errorf("%s is zero", strings.TrimSpace(name))
			}
		}
	}
}

// TestTracesFilterAndFormat exercises ?solver= filtering and ?format=
// rendering on /debug/traces.
func TestTracesFilterAndFormat(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	if resp, b := post(t, srv, "/solve", projectFreeSolve()); resp.StatusCode != http.StatusOK {
		t.Fatalf("brute-force solve = %d: %s", resp.StatusCode, b)
	}
	greedy := projectFreeSolve()
	greedy.Solver = "greedy"
	if resp, b := post(t, srv, "/solve", greedy); resp.StatusCode != http.StatusOK {
		t.Fatalf("greedy solve = %d: %s", resp.StatusCode, b)
	}

	var got TracesResponse
	_, body := get(t, srv, "/debug/traces?solver=brute-force")
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 1 || got.Traces[0].Attrs["solver"] != "brute-force" {
		t.Fatalf("filtered traces = %+v, want exactly the brute-force one", got.Traces)
	}
	_, body = get(t, srv, "/debug/traces?solver=no-such-solver")
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 0 {
		t.Errorf("unknown-solver filter returned %d traces", len(got.Traces))
	}

	status, text := get(t, srv, "/debug/traces?format=text&solver=greedy")
	if status != http.StatusOK {
		t.Fatalf("text format status = %d", status)
	}
	if !strings.Contains(text, "solver=greedy") || !strings.Contains(text, "solve") {
		t.Errorf("text rendering missing content:\n%s", text)
	}
	if strings.Contains(text, "{") {
		t.Errorf("text rendering leaks JSON:\n%s", text)
	}

	if status, _ := get(t, srv, "/debug/traces?format=xml"); status != http.StatusBadRequest {
		t.Errorf("unknown format status = %d, want 400", status)
	}
}

func TestHealthzDraining(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	if status, body := get(t, srv, "/healthz"); status != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz = %d %s", status, body)
	}
	app.SetDraining(true)
	if !app.Draining() {
		t.Fatal("Draining() = false after SetDraining(true)")
	}
	status, body := get(t, srv, "/healthz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("draining healthz = %d %s", status, body)
	}
	if _, metrics := get(t, srv, "/metrics"); !strings.Contains(metrics, "delprop_draining 1") {
		t.Error("/metrics missing delprop_draining 1")
	}
	app.SetDraining(false)
	if status, _ := get(t, srv, "/healthz"); status != http.StatusOK {
		t.Fatalf("healthz after undrain = %d", status)
	}
}

func TestOpsHandler(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()
	if resp, b := post(t, srv, "/solve", projectFreeSolve()); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, b)
	}

	ops := httptest.NewServer(app.OpsHandler(true))
	defer ops.Close()
	// The ops mux shares the app's registry: the solve above is visible.
	if status, body := get(t, ops, "/metrics"); status != http.StatusOK ||
		!strings.Contains(body, `delprop_solves_total{outcome="ok",solver="brute-force"} 1`) {
		t.Errorf("ops /metrics = %d:\n%s", status, body)
	}
	if status, _ := get(t, ops, "/healthz"); status != http.StatusOK {
		t.Errorf("ops /healthz = %d", status)
	}
	if status, _ := get(t, ops, "/debug/traces"); status != http.StatusOK {
		t.Errorf("ops /debug/traces = %d", status)
	}
	if status, body := get(t, ops, "/debug/pprof/cmdline"); status != http.StatusOK || body == "" {
		t.Errorf("ops pprof cmdline = %d", status)
	}

	// Without the flag, pprof must be absent.
	opsOff := httptest.NewServer(app.OpsHandler(false))
	defer opsOff.Close()
	if status, _ := get(t, opsOff, "/debug/pprof/cmdline"); status != http.StatusNotFound {
		t.Errorf("pprof without flag = %d, want 404", status)
	}
}

// TestMetricsUnderConcurrentSolves drives parallel solves against one
// registry; -race in CI validates the hot paths.
func TestMetricsUnderConcurrentSolves(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, srv, "/solve", projectFreeSolve())
			if resp.StatusCode != http.StatusOK {
				t.Errorf("solve status = %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	_, metrics := get(t, srv, "/metrics")
	if want := `delprop_solve_duration_seconds_count{solver="brute-force"} 8`; !strings.Contains(metrics, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestHTTPMetricLabelCardinalityBounded pins the delproplint metriclabels
// fix in observeHTTP: raw request paths and verbs must never mint metric
// series. Unknown paths and exotic methods collapse to "other" no matter
// how many distinct values a client probes with; concurrency makes the
// race detector cover the registry hot path at the same time.
func TestHTTPMetricLabelCardinalityBounded(t *testing.T) {
	app := New()
	srv := httptest.NewServer(app)
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := srv.Client()
			for j := 0; j < 16; j++ {
				resp, err := client.Get(fmt.Sprintf("%s/probe-%d-%d", srv.URL, i, j))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				req, err := http.NewRequest("PROPFIND", srv.URL+"/healthz", nil)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err = client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	_, metrics := get(t, srv, "/metrics")
	if strings.Contains(metrics, "probe-") {
		t.Error("/metrics leaked a raw probe path as a label value")
	}
	if strings.Contains(metrics, "PROPFIND") {
		t.Error("/metrics leaked a raw request verb as a label value")
	}
	if !strings.Contains(metrics, `path="other"`) {
		t.Error(`/metrics has no path="other" series for the unknown routes`)
	}
	if !strings.Contains(metrics, `method="other"`) {
		t.Error(`/metrics has no method="other" series for the unknown verb`)
	}
	if !strings.Contains(metrics, `path="/healthz"`) {
		t.Error(`/metrics lost the known-route series for /healthz`)
	}
}

// syncBuffer is a goroutine-safe log sink: the server logs from handler
// goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSolveLogPhaseTimings: the solve log line carries every lifecycle
// phase as fractional milliseconds, equal to the response's phaseMs.
func TestSolveLogPhaseTimings(t *testing.T) {
	var logs syncBuffer
	app := NewHandler(Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	srv := httptest.NewServer(app)
	defer srv.Close()

	resp, body := post(t, srv, "/solve", projectFreeSolve())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status = %d: %s", resp.StatusCode, body)
	}
	out := decodeSolve(t, body)
	var line map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			t.Fatalf("log line %q: %v", raw, err)
		}
		if rec["msg"] == "solve" {
			line = rec
		}
	}
	if line == nil {
		t.Fatalf("no solve log line in:\n%s", logs.String())
	}
	if line["requestId"] != out.RequestID || line["outcome"] != "ok" {
		t.Errorf("log line identity = %v/%v, want %s/ok", line["requestId"], line["outcome"], out.RequestID)
	}
	for _, phase := range telemetry.Phases {
		got, ok := line[phase+"Ms"].(float64)
		if !ok {
			t.Errorf("log line lacks %sMs: %v", phase, line)
			continue
		}
		if want := out.PhaseMs[phase]; got != want {
			t.Errorf("log %sMs = %v, response phaseMs = %v", phase, got, want)
		}
	}
}

// TestRequestLogOneLinePerSolve: a single-solve request, cold or warm,
// answered or rejected, writes exactly one log line, the "solve" record
// with the request's method, path, status and durationMs. Other routes,
// the batch, and a solve request that fails before its solve starts keep
// their "request" line; a batch item keeps its own "solve" line.
func TestRequestLogOneLinePerSolve(t *testing.T) {
	var logs syncBuffer
	app := NewHandler(Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	srv := httptest.NewServer(app)
	defer srv.Close()

	_, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	sess := decodeSession(t, body)
	unknown := projectFreeSolve()
	unknown.Solver = "no-such-solver"
	cases := []struct {
		path   string
		body   any
		status int
		msg    string
	}{
		{"/solve", projectFreeSolve(), http.StatusOK, "solve"},
		{"/solve", unknown, http.StatusBadRequest, "solve"},
		{"/sessions/" + sess.SessionID + "/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)", Solver: "greedy"}, http.StatusOK, "solve"},
		{"/sessions/" + sess.SessionID + "/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)", Solver: "no-such-solver"}, http.StatusBadRequest, "solve"},
		{"/solve", "not an instance", http.StatusBadRequest, "request"},
		{"/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries}, http.StatusOK, "request"},
		{"/solve/batch", BatchRequest{Items: []InstanceRequest{projectFreeSolve()}}, http.StatusOK, "request"},
	}
	ids := make([]string, len(cases))
	for i, c := range cases {
		resp, body := post(t, srv, c.path, c.body)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.path, resp.StatusCode, c.status, body)
		}
		var out struct {
			RequestID string `json:"requestId"`
		}
		if err := json.Unmarshal(body, &out); err != nil || out.RequestID == "" {
			t.Fatalf("%s: no requestId in %s", c.path, body)
		}
		ids[i] = out.RequestID
	}
	var lines []map[string]any
	for _, raw := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			t.Fatalf("log line %q: %v", raw, err)
		}
		lines = append(lines, rec)
	}
	linesOf := func(id string) []map[string]any {
		var out []map[string]any
		for _, l := range lines {
			if l["requestId"] == id {
				out = append(out, l)
			}
		}
		return out
	}
	for i, c := range cases {
		mine := linesOf(ids[i])
		if len(mine) != 1 {
			t.Errorf("%s %s: %d log lines, want 1: %v", c.path, ids[i], len(mine), mine)
			continue
		}
		l := mine[0]
		if l["msg"] != c.msg || l["method"] != "POST" || l["path"] != c.path || l["status"] != float64(c.status) {
			t.Errorf("%s %s: line %v, want msg %q, POST, status %d", c.path, ids[i], l, c.msg, c.status)
		}
		if _, ok := l["durationMs"].(float64); !ok {
			t.Errorf("%s %s: durationMs missing: %v", c.path, ids[i], l)
		}
		if c.msg == "solve" && l["outcome"] == nil {
			t.Errorf("%s %s: solve line without outcome: %v", c.path, ids[i], l)
		}
	}
	item := linesOf(ids[len(ids)-1] + ".0")
	if len(item) != 1 || item[0]["msg"] != "solve" || item[0]["outcome"] != "ok" || item[0]["status"] != nil {
		t.Errorf("batch item: lines %v, want one solve line without HTTP fields", item)
	}
}
