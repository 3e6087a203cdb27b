package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"delprop/internal/admission"
	"delprop/internal/core"
	"delprop/internal/telemetry"
	"delprop/internal/textio"
	"delprop/internal/workload"
)

// Session suite: the warm-session lifecycle over HTTP (register → solve →
// evict), the hit/miss/eviction observability, the per-endpoint body
// limits, the deadline-resolution contract, and the warm-equals-cold
// determinism sweep.

const fig1Queries = "Q3(x, z) :- T1(x, y), T2(y, z, w)\nQ4(x, y, z) :- T1(x, y), T2(y, z, w)"

func decodeSession(t *testing.T, body []byte) SessionResponse {
	t.Helper()
	var out SessionResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("session body not JSON: %v: %s", err, body)
	}
	return out
}

// canonicalSolve projects a solve response onto the fields the
// determinism contract covers: everything that describes the answer, none
// of the per-request bookkeeping (request id, phase timings, session tag).
func canonicalSolve(t *testing.T, r SolveResponse) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Solver       string      `json:"solver"`
		Deleted      []TupleJSON `json:"deleted"`
		Feasible     bool        `json:"feasible"`
		SideEffect   float64     `json:"sideEffect"`
		Collateral   []string    `json:"collateral"`
		BadRemaining int         `json:"badRemaining"`
		Balanced     float64     `json:"balanced"`
		LowerBound   *float64    `json:"lowerBound"`
	}{r.Solver, r.Deleted, r.Feasible, r.SideEffect, r.Collateral, r.BadRemaining, r.Balanced, r.LowerBound})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestSessionRoundtrip(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()

	// Register once: a miss (nothing was warm) that builds the skeleton.
	resp, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status = %d: %s", resp.StatusCode, body)
	}
	sess := decodeSession(t, body)
	if sess.SessionID == "" || sess.Fingerprint == "" {
		t.Fatalf("register response missing ids: %+v", sess)
	}
	if sess.Reused {
		t.Error("first registration reported reused")
	}
	if sess.DBSize != 7 || sess.Queries != 2 || sess.KeyPreserving {
		t.Errorf("instance dims = %d tuples / %d queries / kp=%v", sess.DBSize, sess.Queries, sess.KeyPreserving)
	}

	// Re-registering the same instance reuses the warm entry: same id.
	resp, body = post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register status = %d: %s", resp.StatusCode, body)
	}
	again := decodeSession(t, body)
	if !again.Reused || again.SessionID != sess.SessionID {
		t.Errorf("re-register reused=%v id=%q, want reuse of %q", again.Reused, again.SessionID, sess.SessionID)
	}

	// The cold answer for the same deletion request is the reference.
	_, coldBody := post(t, srv, "/solve", InstanceRequest{
		Database: fig1DB, Queries: fig1Queries, Deletions: "Q4(John, TKDE, XML)", Solver: "greedy",
	})
	cold := decodeSolve(t, coldBody)

	// Two warm solves: both must match the cold answer byte for byte on
	// the canonical subset, and carry the session markers.
	for i := 0; i < 2; i++ {
		resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{
			Deletions: "Q4(John, TKDE, XML)", Solver: "greedy",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm solve %d status = %d: %s", i, resp.StatusCode, body)
		}
		warm := decodeSolve(t, body)
		if !warm.Warm || warm.Session != sess.SessionID {
			t.Errorf("warm solve %d markers: warm=%v session=%q", i, warm.Warm, warm.Session)
		}
		if got, want := canonicalSolve(t, warm), canonicalSolve(t, cold); got != want {
			t.Errorf("warm solve %d diverged from cold:\nwarm %s\ncold %s", i, got, want)
		}
	}
	if cold.Warm || cold.Session != "" {
		t.Errorf("cold solve carries session markers: warm=%v session=%q", cold.Warm, cold.Session)
	}

	// /debug/sessions shows the entry with its hit count.
	status, debugBody := get(t, srv, "/debug/sessions")
	if status != http.StatusOK {
		t.Fatalf("/debug/sessions = %d", status)
	}
	var dbg SessionsDebugResponse
	if err := json.Unmarshal([]byte(debugBody), &dbg); err != nil {
		t.Fatalf("/debug/sessions not JSON: %v", err)
	}
	if len(dbg.Sessions) != 1 || dbg.Sessions[0].ID != sess.SessionID {
		t.Fatalf("/debug/sessions = %+v, want the one registered session", dbg.Sessions)
	}
	// One reuse + two warm solves.
	if dbg.Sessions[0].Hits != 3 {
		t.Errorf("session hits = %d, want 3", dbg.Sessions[0].Hits)
	}

	// The metric family agrees: 3 hits, 1 miss (the initial build).
	_, metrics := get(t, srv, "/metrics")
	if !strings.Contains(metrics, "delprop_session_hits_total 3") {
		t.Errorf("metrics missing hit count:\n%s", grepMetrics(metrics, "delprop_session"))
	}
	if !strings.Contains(metrics, "delprop_session_misses_total 1") {
		t.Errorf("metrics missing miss count:\n%s", grepMetrics(metrics, "delprop_session"))
	}
	if !strings.Contains(metrics, "delprop_session_entries 1") {
		t.Errorf("metrics missing entries gauge:\n%s", grepMetrics(metrics, "delprop_session"))
	}

	// Explicit eviction, then the id is gone: solve 404s with the session
	// code and a repeat DELETE 404s too.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/sessions/"+sess.SessionID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve after evict = %d: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != codeSessionNotFound {
		t.Errorf("solve after evict code = %q", e.Code)
	}
	dresp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Errorf("repeat delete status = %d", dresp2.StatusCode)
	}
	_, metrics = get(t, srv, "/metrics")
	if !strings.Contains(metrics, `delprop_session_evictions_total{reason="explicit"} 1`) {
		t.Errorf("metrics missing eviction:\n%s", grepMetrics(metrics, "delprop_session"))
	}
	if !strings.Contains(metrics, "delprop_session_entries 0") {
		t.Errorf("entries gauge not back to zero:\n%s", grepMetrics(metrics, "delprop_session"))
	}
}

// grepMetrics keeps failure output readable: only the matching family.
func grepMetrics(metrics, needle string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestSessionEvents: the registry lifecycle publishes session_hit,
// session_miss and session_evicted on the live bus.
func TestSessionEvents(t *testing.T) {
	app := NewHandler(Config{})
	srv := httptest.NewServer(app)
	defer srv.Close()
	sub := app.Events().Subscribe(telemetry.Filter{}, 64)
	defer sub.Close()

	_, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	sess := decodeSession(t, body)
	post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)"})
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sessions/"+sess.SessionID, nil)
	if dresp, err := http.DefaultClient.Do(req); err == nil {
		dresp.Body.Close()
	}

	deadline := time.After(2 * time.Second)
	got := map[string]int{}
	for got[eventSessionMiss] < 1 || got[eventSessionHit] < 1 || got[eventSessionEvicted] < 1 {
		select {
		case <-sub.Notify():
			for _, ev := range sub.Drain(64) {
				switch ev.Type {
				case eventSessionHit, eventSessionMiss, eventSessionEvicted:
					got[ev.Type]++
					if ev.Fields.Get("sessionId") == "" {
						t.Errorf("%s event missing sessionId: %+v", ev.Type, ev.Fields)
					}
					if ev.Type == eventSessionEvicted && ev.Fields.Get("reason") != "explicit" {
						t.Errorf("evict reason = %v", ev.Fields.Get("reason"))
					}
				}
			}
		case <-deadline:
			t.Fatalf("missing session events after 2s: %v", got)
		}
	}
}

// TestSessionBodyLimits: the registration endpoint and the warm-solve
// endpoint have independent body limits — a database-sized registration
// is not 413'd by the 1 MiB solve limit, and a deletion request cannot
// smuggle a database-sized payload through the warm path.
func TestSessionBodyLimits(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()

	// A registration body far over the warm-solve limit must pass; comment
	// lines pad it past the limit without growing the views.
	var bigDB strings.Builder
	bigDB.WriteString(fig1DB)
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&bigDB, "T1(Author%04d, TKDE)\n", i)
	}
	pad := "# " + strings.Repeat("x", 1022) + "\n"
	for bigDB.Len() <= DefaultMaxSessionSolveBodyBytes {
		bigDB.WriteString(pad)
	}
	body := SessionRequest{Database: bigDB.String(), Queries: fig1Queries}
	resp, respBody := post(t, srv, "/sessions", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("big registration status = %d: %s", resp.StatusCode, respBody)
	}
	sess := decodeSession(t, respBody)

	// A normal warm solve fits under the solve limit.
	resp, respBody = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{
		Deletions: "Q4(John, TKDE, XML)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve status = %d: %s", resp.StatusCode, respBody)
	}

	// An oversized warm-solve body is rejected with 413 before parsing.
	resp, respBody = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{
		Deletions: "Q4(John, TKDE, XML)",
		Timeout:   strings.Repeat(" ", DefaultMaxSessionSolveBodyBytes),
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized warm solve status = %d: %s", resp.StatusCode, respBody)
	}
	if e := decodeErr(t, respBody); e.Code != codeBodyTooLarge {
		t.Errorf("oversized warm solve code = %q", e.Code)
	}
}

// TestSolveDeadlineResolution pins the zero-value interaction between the
// request spec, the server caps and the tenant clamp: the resolution is
// always the min of the applicable bounds, so no spec — and in particular
// no zero value anywhere — can widen a tenant's cap.
func TestSolveDeadlineResolution(t *testing.T) {
	app := NewHandler(Config{
		DefaultSolveTimeout: 10 * time.Second,
		MaxSolveTimeout:     30 * time.Second,
	})
	capped := &admission.TenantPolicy{MaxDeadline: 5 * time.Second}
	uncapped := &admission.TenantPolicy{} // MaxDeadline zero = no tenant cap

	tests := []struct {
		name    string
		spec    string
		pol     *admission.TenantPolicy
		want    time.Duration
		wantErr bool
	}{
		{name: "empty spec no policy", spec: "", pol: nil, want: 10 * time.Second},
		{name: "empty spec capped tenant", spec: "", pol: capped, want: 5 * time.Second},
		{name: "empty spec zero-cap tenant", spec: "", pol: uncapped, want: 10 * time.Second},
		{name: "explicit zero is an error", spec: "0", pol: nil, wantErr: true},
		{name: "explicit zero under capped tenant", spec: "0s", pol: capped, wantErr: true},
		{name: "negative is an error", spec: "-1s", pol: capped, wantErr: true},
		{name: "garbage is an error", spec: "soon", pol: nil, wantErr: true},
		{name: "sub-cap spec passes through", spec: "2s", pol: capped, want: 2 * time.Second},
		{name: "over-cap spec clamps to tenant", spec: "20s", pol: capped, want: 5 * time.Second},
		{name: "over-server-cap clamps to server", spec: "5m", pol: nil, want: 30 * time.Second},
		{name: "over-both clamps to tenant", spec: "5m", pol: capped, want: 5 * time.Second},
		{name: "zero-cap tenant keeps server cap", spec: "5m", pol: uncapped, want: 30 * time.Second},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := app.api.solveDeadline(tc.spec, tc.pol)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("solveDeadline(%q) = %v, want error", tc.spec, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("solveDeadline(%q): %v", tc.spec, err)
			}
			if got != tc.want {
				t.Errorf("solveDeadline(%q) = %v, want %v", tc.spec, got, tc.want)
			}
			if tc.pol != nil && tc.pol.MaxDeadline > 0 && got > tc.pol.MaxDeadline {
				t.Errorf("resolution %v widened tenant cap %v", got, tc.pol.MaxDeadline)
			}
		})
	}
}

// TestSingleClassifySpan: classification runs once per solve. The trace
// for a solve must contain exactly one "classify" span — cold and warm.
func TestSingleClassifySpan(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()

	countClassify := func(body string) []int {
		var traces struct {
			Traces []struct {
				Name  string `json:"name"`
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &traces); err != nil {
			t.Fatalf("/debug/traces not JSON: %v", err)
		}
		var out []int
		for _, tr := range traces.Traces {
			if tr.Name != "solve" {
				continue
			}
			n := 0
			for _, sp := range tr.Spans {
				if sp.Name == telemetry.PhaseClassify {
					n++
				}
			}
			out = append(out, n)
		}
		return out
	}

	// One cold solve and one warm solve.
	post(t, srv, "/solve", InstanceRequest{Database: fig1DB, Queries: fig1Queries, Deletions: "Q4(John, TKDE, XML)"})
	_, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	sess := decodeSession(t, body)
	post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)"})

	_, traceBody := get(t, srv, "/debug/traces")
	counts := countClassify(traceBody)
	if len(counts) != 2 {
		t.Fatalf("found %d solve traces, want 2 (cold + warm)", len(counts))
	}
	for i, n := range counts {
		if n != 1 {
			t.Errorf("solve trace %d has %d classify spans, want exactly 1", i, n)
		}
	}
}

// TestSessionDraining: a draining server refuses new registrations and
// warm acquisitions with 503 while staying healthy for its last solves.
func TestSessionDraining(t *testing.T) {
	app := NewHandler(Config{})
	srv := httptest.NewServer(app)
	defer srv.Close()

	_, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	sess := decodeSession(t, body)

	app.SetDraining(true)
	resp, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register while draining = %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warm solve while draining = %d: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Code != codeOverloaded {
		t.Errorf("draining code = %q", e.Code)
	}

	app.SetDraining(false)
	resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve after undrain = %d: %s", resp.StatusCode, body)
	}
}

// TestSessionCapacity: MaxSessions bounds the registry; the overflow
// registration evicts the least-recently-used idle entry rather than
// failing, and the eviction is observable.
func TestSessionCapacity(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{MaxSessions: 2}))
	defer srv.Close()

	ids := make([]string, 3)
	for i := range ids {
		db := fig1DB + fmt.Sprintf("T1(Extra%d, TKDE)\n", i)
		resp, body := post(t, srv, "/sessions", SessionRequest{Database: db, Queries: fig1Queries})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %d = %d: %s", i, resp.StatusCode, body)
		}
		ids[i] = decodeSession(t, body).SessionID
	}
	// The first session was LRU and must be gone.
	resp, body := post(t, srv, "/sessions/"+ids[0]+"/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session solve = %d: %s", resp.StatusCode, body)
	}
	_, metrics := get(t, srv, "/metrics")
	if !strings.Contains(metrics, `delprop_session_evictions_total{reason="capacity"} 1`) {
		t.Errorf("capacity eviction not counted:\n%s", grepMetrics(metrics, "delprop_session"))
	}
}

// TestWarmColdDeterminism sweeps workload families × seeds and asserts
// the warm path returns a byte-identical canonical answer to the cold
// path for the same instance, deletions and weights.
func TestWarmColdDeterminism(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()

	type instance struct {
		name string
		w    *workload.Workload
	}
	var instances []instance
	instances = append(instances, instance{"fig1", workload.Fig1()})
	for seed := int64(1); seed <= 2; seed++ {
		instances = append(instances,
			instance{fmt.Sprintf("star-%d", seed), workload.Star(workload.StarConfig{
				Seed: seed, Relations: 3, HubValues: 4, Queries: 2, AtomsPerQuery: 2, RowsPerRelation: 12,
			})},
			instance{fmt.Sprintf("chain-%d", seed), workload.Chain(workload.ChainConfig{
				Seed: seed, Length: 3, Domain: 4, RowsPerRelation: 12, Queries: 2, MaxSpan: 2,
			})},
			instance{fmt.Sprintf("pivot-%d", seed), workload.Pivot(workload.PivotConfig{
				Seed: seed, Roots: 2, ChildrenPerRoot: 3, GrandPerChild: 2,
			})},
			instance{fmt.Sprintf("selfjoin-%d", seed), workload.SelfJoin(workload.SelfJoinConfig{
				Seed: seed, Nodes: 5, Edges: 12, Queries: 2, MaxLen: 2,
			})},
		)
	}

	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			dbText := textio.FormatDatabase(inst.w.DB)
			var qLines []string
			for _, q := range inst.w.Queries {
				qLines = append(qLines, q.String())
			}
			qText := strings.Join(qLines, "\n")

			// Materialize once locally to sample a deletion request, then
			// render it in the wire format (query name + tuple values).
			p, err := core.NewProblem(inst.w.DB, inst.w.Queries, nil)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				del := workload.SampleDeletion(p.Views, 2, seed)
				var delLines []string
				for _, ref := range del.Refs() {
					delLines = append(delLines, inst.w.Queries[ref.View].Name+ref.Tuple.String())
				}
				delText := strings.Join(delLines, "\n")
				if delText == "" {
					continue
				}

				_, coldBody := post(t, srv, "/solve", InstanceRequest{
					Database: dbText, Queries: qText, Deletions: delText,
				})
				cold := decodeSolve(t, coldBody)

				resp, body := post(t, srv, "/sessions", SessionRequest{Database: dbText, Queries: qText})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("register status = %d: %s", resp.StatusCode, body)
				}
				sess := decodeSession(t, body)
				resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{
					Deletions: delText,
				})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("warm solve status = %d: %s", resp.StatusCode, body)
				}
				warm := decodeSolve(t, body)
				if got, want := canonicalSolve(t, warm), canonicalSolve(t, cold); got != want {
					t.Errorf("seed %d: warm diverged from cold\nwarm %s\ncold %s", seed, got, want)
				}
			}
		})
	}
}

// TestWarmSolveWeights: weighted warm solves match weighted cold solves,
// and the weights do not leak into the shared skeleton across requests.
func TestWarmSolveWeights(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()

	weights := map[string]float64{"Q4(Joe, TKDE, XML)": 5}
	req := InstanceRequest{
		Database: fig1DB, Queries: fig1Queries, Deletions: "Q4(John, TKDE, XML)",
		Weights: weights, Solver: "greedy",
	}
	_, coldBody := post(t, srv, "/solve", req)
	cold := decodeSolve(t, coldBody)

	_, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	sess := decodeSession(t, body)

	resp, body := post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{
		Deletions: "Q4(John, TKDE, XML)", Weights: weights, Solver: "greedy",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted warm solve = %d: %s", resp.StatusCode, body)
	}
	weighted := decodeSolve(t, body)
	if got, want := canonicalSolve(t, weighted), canonicalSolve(t, cold); got != want {
		t.Errorf("weighted warm diverged from cold:\nwarm %s\ncold %s", got, want)
	}

	// A follow-up unweighted warm solve sees pristine unit weights.
	_, coldPlainBody := post(t, srv, "/solve", InstanceRequest{
		Database: fig1DB, Queries: fig1Queries, Deletions: "Q4(John, TKDE, XML)", Solver: "greedy",
	})
	coldPlain := decodeSolve(t, coldPlainBody)
	resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{
		Deletions: "Q4(John, TKDE, XML)", Solver: "greedy",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain warm solve = %d: %s", resp.StatusCode, body)
	}
	plain := decodeSolve(t, body)
	if got, want := canonicalSolve(t, plain), canonicalSolve(t, coldPlain); got != want {
		t.Errorf("weights leaked into the shared skeleton:\nwarm %s\ncold %s", got, want)
	}
}

// TestSessionRegisterErrors: invalid instances fail registration with
// 400 and are not cached — a corrected retry succeeds.
func TestSessionRegisterErrors(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()

	resp, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: "broken"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken queries status = %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: fig1Queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid registration after failure = %d: %s", resp.StatusCode, body)
	}

	// Bad deletions on the warm path are a per-request 400, not fatal to
	// the session.
	sess := decodeSession(t, body)
	resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{Deletions: "Q4(Nobody, X, Y)"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deletion status = %d: %s", resp.StatusCode, body)
	}
	resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after bad deletion = %d: %s", resp.StatusCode, body)
	}
}

// TestWarmSolveDualBoundCached: warm solves certify the same lower bound
// as the cold solve, on a repeated request too. The name predates the
// removal of the session's certificate cache; warm and cold now share
// one bound path, core.DualBound inside core.Run.
func TestWarmSolveDualBoundCached(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()

	_, coldBody := post(t, srv, "/solve", InstanceRequest{
		Database: fig1DB, Queries: "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		Deletions: "Q4(John, TKDE, XML)", Solver: "greedy",
	})
	cold := decodeSolve(t, coldBody)
	if cold.LowerBound == nil {
		t.Fatal("cold solve reported no lower bound")
	}

	_, body := post(t, srv, "/sessions", SessionRequest{
		Database: fig1DB, Queries: "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
	})
	sess := decodeSession(t, body)
	for i := 0; i < 2; i++ {
		resp, body := post(t, srv, "/sessions/"+sess.SessionID+"/solve", SessionSolveRequest{
			Deletions: "Q4(John, TKDE, XML)", Solver: "greedy",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm solve %d = %d: %s", i, resp.StatusCode, body)
		}
		warm := decodeSolve(t, body)
		if warm.LowerBound == nil || *warm.LowerBound != *cold.LowerBound {
			t.Errorf("warm solve %d lower bound = %v, want %v", i, warm.LowerBound, *cold.LowerBound)
		}
	}
}
