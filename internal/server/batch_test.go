package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"delprop/internal/core"
)

func fig1Item(deletions string) InstanceRequest {
	return InstanceRequest{
		Database:  fig1DB,
		Queries:   "Q4(x, y, z) :- T1(x, y), T2(y, z, w)",
		Deletions: deletions,
	}
}

func TestSolveBatchEndpoint(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	req := BatchRequest{Items: []InstanceRequest{
		fig1Item("Q4(John, TKDE, XML)"),
		fig1Item("Q4(Joe, TKDE, XML)"),
		fig1Item("Q4(John, TODS, XML)"),
	}}
	resp, body := post(t, srv, "/solve/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Completed != 3 || out.Failed != 0 || out.Skipped != 0 || out.Partial {
		t.Fatalf("summary = %+v", out)
	}
	if len(out.Items) != 3 {
		t.Fatalf("items = %d", len(out.Items))
	}
	for i, item := range out.Items {
		if item.Index != i {
			t.Errorf("item %d carries index %d", i, item.Index)
		}
		if item.Response == nil || !item.Response.Feasible {
			t.Errorf("item %d: %+v", i, item)
			continue
		}
		if want := fmt.Sprintf(".%d", i); !strings.HasSuffix(item.Response.RequestID, want) {
			t.Errorf("item %d request id = %q, want suffix %q", i, item.Response.RequestID, want)
		}
	}
}

// TestSolveBatchMixedOutcomes: a bad item fails with the single-solve
// error taxonomy without sinking its siblings.
func TestSolveBatchMixedOutcomes(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	bad := fig1Item("Q4(John, TKDE, XML)")
	bad.Solver = "no-such-solver"
	req := BatchRequest{Items: []InstanceRequest{
		fig1Item("Q4(John, TKDE, XML)"),
		bad,
	}}
	resp, body := post(t, srv, "/solve/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Completed != 1 || out.Failed != 1 {
		t.Fatalf("summary = %+v", out)
	}
	if out.Items[1].Error == nil || out.Items[1].Error.Code != codeUnknownSolver {
		t.Errorf("bad item = %+v", out.Items[1])
	}
}

func TestSolveBatchLimits(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{MaxBatchItems: 2}))
	defer srv.Close()

	resp, body := post(t, srv, "/solve/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d: %s", resp.StatusCode, body)
	}

	req := BatchRequest{Items: []InstanceRequest{
		fig1Item("Q4(John, TKDE, XML)"),
		fig1Item("Q4(John, TKDE, XML)"),
		fig1Item("Q4(John, TKDE, XML)"),
	}}
	resp, body = post(t, srv, "/solve/batch", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status = %d: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != codeBatchTooLarge {
		t.Errorf("code = %q, want %q", e.Code, codeBatchTooLarge)
	}

	// A batch timeout follows the per-solve rules: it must parse and be
	// positive.
	for _, timeout := range []string{"0s", "-1s", "soon"} {
		req := BatchRequest{Items: []InstanceRequest{fig1Item("Q4(John, TKDE, XML)")}, Timeout: timeout}
		resp, body = post(t, srv, "/solve/batch", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("timeout %q: status = %d: %s", timeout, resp.StatusCode, body)
			continue
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != codeInvalidRequest {
			t.Errorf("timeout %q: code = %q, want %q", timeout, e.Code, codeInvalidRequest)
		}
	}
}

// TestSolveBatchWorkersClamped: the response reports the effective pool
// size after clamping to the server cap and the item count.
func TestSolveBatchWorkersClamped(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{MaxBatchWorkers: 2}))
	defer srv.Close()
	req := BatchRequest{
		Workers: 16,
		Items: []InstanceRequest{
			fig1Item("Q4(John, TKDE, XML)"),
			fig1Item("Q4(Joe, TKDE, XML)"),
			fig1Item("Q4(John, TODS, XML)"),
		},
	}
	resp, body := post(t, srv, "/solve/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Workers != 2 {
		t.Errorf("workers = %d, want 2 (server cap)", out.Workers)
	}
	// One item gets one worker.
	resp, body = post(t, srv, "/solve/batch", BatchRequest{Items: []InstanceRequest{fig1Item("Q4(John, TKDE, XML)")}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Workers != 1 {
		t.Errorf("workers = %d, want 1", out.Workers)
	}
}

// TestSolveBatchPartialOnTimeout: when the batch deadline fires mid-run,
// finished items keep their results and queued items come back skipped —
// partial results, never a dropped batch.
func TestSolveBatchPartialOnTimeout(t *testing.T) {
	core.RegisterSolver("test-batch-block", func() core.Solver {
		return &core.Faulty{Mode: core.FaultBlock}
	})
	srv := httptest.NewServer(NewHandler(Config{MaxBatchWorkers: 1}))
	defer srv.Close()

	blocked := fig1Item("Q4(John, TKDE, XML)")
	blocked.Solver = "test-batch-block"
	req := BatchRequest{
		Timeout: "300ms",
		Workers: 1,
		Items: []InstanceRequest{
			fig1Item("Q4(John, TKDE, XML)"), // fast, completes
			blocked,                         // holds the single worker until the batch deadline
			fig1Item("Q4(Joe, TKDE, XML)"),  // never starts
		},
	}
	resp, body := post(t, srv, "/solve/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Partial {
		t.Errorf("batch not marked partial: %+v", out)
	}
	if out.Items[0].Response == nil || !out.Items[0].Response.Feasible {
		t.Errorf("fast item lost its result: %+v", out.Items[0])
	}
	if out.Items[1].Error == nil {
		t.Errorf("blocked item should fail on the batch deadline: %+v", out.Items[1])
	}
	if !out.Items[2].Skipped {
		t.Errorf("queued item should be skipped: %+v", out.Items[2])
	}
	if out.Completed != 1 || out.Failed != 1 || out.Skipped != 1 {
		t.Errorf("summary = %+v", out)
	}
}

// TestSolveBatchConcurrentLoadWithDrain: many concurrent batches against
// a draining server — results stay coherent, and the drain flag flips
// health to 503 while in-flight batches still finish (run under -race).
func TestSolveBatchConcurrentLoadWithDrain(t *testing.T) {
	s := NewHandler(Config{MaxBatchWorkers: 2})
	srv := httptest.NewServer(s)
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := BatchRequest{Items: []InstanceRequest{
				fig1Item("Q4(John, TKDE, XML)"),
				fig1Item("Q4(Joe, TKDE, XML)"),
			}}
			resp, body := post(t, srv, "/solve/batch", req)
			// 429 is a legitimate shed under concurrent load.
			if resp.StatusCode == http.StatusTooManyRequests {
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var out BatchResponse
			if err := json.Unmarshal(body, &out); err != nil {
				errs <- err
				return
			}
			if out.Completed != 2 {
				errs <- fmt.Errorf("completed = %d: %+v", out.Completed, out)
			}
		}()
	}
	// Flip the drain flag mid-flight: in-flight requests must finish, and
	// health must answer 503 immediately.
	time.Sleep(5 * time.Millisecond)
	s.SetDraining(true)
	hc, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hc.Body.Close()
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", hc.StatusCode)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSolveRaceTelemetry: a portfolio solve surfaces the race snapshot on
// the response and the delprop_parallel_* metrics on /metrics.
func TestSolveRaceTelemetry(t *testing.T) {
	s := New()
	srv := httptest.NewServer(s)
	defer srv.Close()
	req := fig1Item("Q4(John, TKDE, XML)")
	req.Solver = "portfolio-parallel"
	resp, body := post(t, srv, "/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Solver != "portfolio-parallel" {
		t.Errorf("solver = %q", out.Solver)
	}
	if out.Race == nil {
		t.Fatal("response carries no race snapshot")
	}
	if out.Race.Winner == "" || len(out.Race.Members) != 4 {
		t.Errorf("race = %+v", out.Race)
	}
	winners := 0
	for _, m := range out.Race.Members {
		if m.Winner {
			winners++
		}
	}
	if winners != 1 {
		t.Errorf("winners = %d, want 1", winners)
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "delprop_parallel_races_total{") {
		t.Error("metrics missing delprop_parallel_races_total")
	}
}
