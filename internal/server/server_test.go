package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"delprop/internal/telemetry"
)

const fig1DB = `
relation T1(AuName*, Journal*)
T1(Joe, TKDE)
T1(John, TKDE)
T1(Tom, TKDE)
T1(John, TODS)
relation T2(Journal*, Topic*, Papers)
T2(TKDE, XML, 30)
T2(TKDE, CUBE, 30)
T2(TODS, XML, 30)
`

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSolveEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	req := InstanceRequest{
		Database:  fig1DB,
		Queries:   "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		Deletions: "Q4(John, TKDE, XML)",
	}
	resp, body := post(t, srv, "/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Feasible || out.SideEffect != 1 {
		t.Errorf("response = %+v", out)
	}
	if out.Solver != "single-tuple-exact" {
		t.Errorf("auto solver = %q", out.Solver)
	}
	if len(out.Deleted) != 1 || out.Deleted[0].Relation != "T1" {
		t.Errorf("deleted = %+v", out.Deleted)
	}
	if out.LowerBound == nil {
		t.Error("missing lower bound for key-preserving instance")
	}
}

func TestSolveWithWeights(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	req := InstanceRequest{
		Database:  fig1DB,
		Queries:   "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		Deletions: "Q4(John, TKDE, XML)",
		Solver:    "red-blue-exact",
		// Make John's CUBE row precious: the optimum flips to deleting
		// the T2 XML row (collateral weight 2 < 100).
		Weights: map[string]float64{"Q4(John, TKDE, CUBE)": 100},
	}
	resp, body := post(t, srv, "/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.SideEffect != 2 || out.Deleted[0].Relation != "T2" {
		t.Errorf("weighted solve = %+v", out)
	}
}

// TestConflictingWeightsRejected: the parser trims arguments, so two
// weight specs differing only in spacing name one view tuple. Agreeing
// weights are fine; disagreeing ones are a 400 on the cold and warm
// paths instead of a winner picked by map order. A negative weight is a
// 400 on both paths too: it would let the side effect fall below the
// dual lower bound.
func TestConflictingWeightsRejected(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	queries := "Q4(x, y, z) :- T1(x, y), T2(y, z, w)"
	agree := map[string]float64{"Q4(John, TKDE, CUBE)": 100, "Q4(John,TKDE,CUBE)": 100}
	rejected := []struct {
		name    string
		weights map[string]float64
	}{
		{"conflicting", map[string]float64{"Q4(John, TKDE, CUBE)": 100, "Q4(John,TKDE,CUBE)": 1}},
		{"negative", map[string]float64{"Q4(John, TKDE, CUBE)": -5, "Q4(Joe, TKDE, XML)": -5}},
	}

	resp, body := post(t, srv, "/sessions", SessionRequest{Database: fig1DB, Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var sess SessionResponse
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	cold := InstanceRequest{Database: fig1DB, Queries: queries, Deletions: "Q4(John, TKDE, XML)", Solver: "red-blue-exact"}
	for _, rc := range rejected {
		cold.Weights = rc.weights
		resp, body = post(t, srv, "/solve", cold)
		if resp.StatusCode != http.StatusBadRequest || decodeErr(t, body).Code != codeInvalidRequest {
			t.Errorf("%s cold weights: status %d body %s, want 400 %s", rc.name, resp.StatusCode, body, codeInvalidRequest)
		}
		warm := SessionSolveRequest{Deletions: "Q4(John, TKDE, XML)", Solver: "red-blue-exact", Weights: rc.weights}
		resp, body = post(t, srv, "/sessions/"+sess.SessionID+"/solve", warm)
		if resp.StatusCode != http.StatusBadRequest || decodeErr(t, body).Code != codeInvalidRequest {
			t.Errorf("%s warm weights: status %d body %s, want 400 %s", rc.name, resp.StatusCode, body, codeInvalidRequest)
		}
	}
	cold.Weights = agree
	if resp, body = post(t, srv, "/solve", cold); resp.StatusCode != http.StatusOK {
		t.Fatalf("agreeing cold weights: status %d: %s", resp.StatusCode, body)
	}
}

func TestSolveErrors(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	cases := []struct {
		name   string
		req    any
		status int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"bad database", InstanceRequest{Database: "garbage", Queries: "Q(x) :- T(x)"}, http.StatusBadRequest},
		{"bad query", InstanceRequest{Database: fig1DB, Queries: "broken"}, http.StatusBadRequest},
		{"empty program", InstanceRequest{Database: fig1DB, Queries: "# none"}, http.StatusBadRequest},
		{"bad deletion", InstanceRequest{Database: fig1DB, Queries: "Q4(x, y, z) :- T1(x, y), T2(y, z, w)", Deletions: "Q4(Nobody, X, Y)"}, http.StatusBadRequest},
		{"unknown solver", InstanceRequest{Database: fig1DB, Queries: "Q4(x, y, z) :- T1(x, y), T2(y, z, w)", Solver: "nope"}, http.StatusBadRequest},
		{"solver precondition", InstanceRequest{Database: fig1DB, Queries: "Q3(x, z) :- T1(x, y), T2(y, z, w)", Deletions: "Q3(John, XML)", Solver: "dp-tree"}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if s, ok := c.req.(string); ok {
				r, err := http.Post(srv.URL+"/solve", "application/json", strings.NewReader(s))
				if err != nil {
					t.Fatal(err)
				}
				defer r.Body.Close()
				resp = r
			} else {
				resp, body = post(t, srv, "/solve", c.req)
			}
			if resp.StatusCode != c.status {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, c.status, body)
			}
		})
	}
}

// TestEmptyProgramRejectedEverywhere: /classify, /lineage and /resilience
// reject a program with no query as /solve does, with the same status,
// code and text, instead of answering for zero queries.
func TestEmptyProgramRejectedEverywhere(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	req := map[string]string{"database": fig1DB, "queries": "# none", "tuple": "Q(a)"}
	resp, body := post(t, srv, "/solve", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/solve: status = %d: %s", resp.StatusCode, body)
	}
	want := decodeErr(t, body)
	for _, path := range []string{"/classify", "/lineage", "/resilience"} {
		resp, body := post(t, srv, path, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %s", path, resp.StatusCode, body)
			continue
		}
		if got := decodeErr(t, body); got.Code != want.Code || got.Error != want.Error {
			t.Errorf("%s: error %q (%s), want %q (%s) as /solve", path, got.Error, got.Code, want.Error, want.Code)
		}
	}
}

func TestClassifyEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	req := InstanceRequest{
		Database: fig1DB,
		Queries:  "Q3(x, z) :- T1(x, y), T2(y, z, w)\nQ4(x, y, z) :- T1(x, y), T2(y, z, w)",
	}
	resp, body := post(t, srv, "/classify", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Queries) != 2 {
		t.Fatalf("queries = %d", len(out.Queries))
	}
	if out.Queries[0].KeyPreserving || !out.Queries[1].KeyPreserving {
		t.Errorf("key-preserving flags: %+v", out.Queries)
	}
	if out.Multi.AllKeyPreserving {
		t.Error("multi should not be all key-preserving")
	}
}

// TestClassifyEndpointAsWritten: /classify classifies each query as
// written, not its core. Q's core Q(x) :- R(x, z) is self-join-free and
// head-dominated (PTime on both sides, as cmd/classify reports), but Q
// itself has a self-join, so both single-query classes are unknown.
// Minimizing needs cq.FindHomomorphism, an exponential search with no
// deadline, which stays off the request path.
func TestClassifyEndpointAsWritten(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	req := InstanceRequest{Database: "relation R(A, B*)\nR(a, 1)\n", Queries: "Q(x) :- R(x, y), R(x, z)"}
	resp, body := post(t, srv, "/classify", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Queries) != 1 {
		t.Fatalf("queries = %d", len(out.Queries))
	}
	q := out.Queries[0]
	if q.SelfJoinFree || q.SourceClass != "unknown" || q.ViewClass != "unknown" {
		t.Errorf("got sj-free=%v source %q view %q, want false, unknown, unknown", q.SelfJoinFree, q.SourceClass, q.ViewClass)
	}
}

func TestLineageEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	req := LineageRequest{
		Database: fig1DB,
		Queries:  "Q3(x, z) :- T1(x, y), T2(y, z, w)",
		Tuple:    "Q3(John, XML)",
	}
	resp, body := post(t, srv, "/lineage", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out LineageResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Witnesses) != 2 {
		t.Errorf("witnesses = %d, want 2", len(out.Witnesses))
	}
	if !strings.Contains(out.Report, "why[1]") {
		t.Errorf("report:\n%s", out.Report)
	}
	// Unknown tuple: 404.
	req.Tuple = "Q3(Nobody, X)"
	resp, _ = post(t, srv, "/lineage", req)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tuple status = %d", resp.StatusCode)
	}
	// Malformed tuple.
	req.Tuple = "garbage"
	resp, _ = post(t, srv, "/lineage", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed tuple status = %d", resp.StatusCode)
	}
}

func TestResilienceEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	req := InstanceRequest{
		Database: fig1DB,
		Queries:  "Q3(x, z) :- T1(x, y), T2(y, z, w)",
	}
	resp, body := post(t, srv, "/resilience", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out ResilienceResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Queries) != 1 {
		t.Fatalf("queries = %d", len(out.Queries))
	}
	qr := out.Queries[0]
	if qr.Method != "bipartite-vertex-cover" {
		t.Errorf("method = %q", qr.Method)
	}
	if qr.Resilience <= 0 || len(qr.Witness) != qr.Resilience {
		t.Errorf("resilience = %d, witness = %d", qr.Resilience, len(qr.Witness))
	}
	// Bad inputs.
	resp, _ = post(t, srv, "/resilience", InstanceRequest{Database: "garbage", Queries: "Q(x) :- T(x)"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad db status = %d", resp.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve status = %d", resp.StatusCode)
	}
}

// New returns the server with all routes mounted under the default
// hardening configuration.
func New() *Server { return NewHandler(Config{}) }

// Draining reports whether the drain flag is set.
func (s *Server) Draining() bool { return s.api.draining.Load() }

// Metrics returns the server's metric registry (the one GET /metrics
// renders).
func (s *Server) Metrics() *telemetry.Registry { return s.api.metrics }

// Tracer returns the server's solve tracer (the one GET /debug/traces
// snapshots).
func (s *Server) Tracer() *telemetry.Tracer { return s.api.tracer }

// Events returns the server's live telemetry bus (the one GET /events
// streams from).
func (s *Server) Events() *telemetry.Bus { return s.api.events }
