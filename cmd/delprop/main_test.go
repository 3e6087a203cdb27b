package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"delprop/internal/core"
	"delprop/internal/cq"
	"delprop/internal/relation"
	"delprop/internal/server"
	"delprop/internal/telemetry"
	"delprop/internal/textio"
	"delprop/internal/view"
)

func td(name string) string { return filepath.Join("testdata", name) }

// captureStdout runs f with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		_, _ = io.Copy(&b, r)
		done <- b.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestRunEndToEnd(t *testing.T) {
	for _, solver := range []string{"auto", "greedy", "red-blue", "red-blue-exact", "single-exact", "brute-force", "primal-dual", "low-deg", "balanced-red-blue", "balanced-exact"} {
		out, err := captureStdout(t, func() error {
			return run(td("db.txt"), td("queries.dl"), td("delete.txt"), options{solver: solver, balanced: true, explain: true})
		})
		if err != nil {
			t.Fatalf("solver %s: %v", solver, err)
		}
		if !strings.Contains(out, "feasible: true") {
			t.Errorf("solver %s: output lacks feasibility:\n%s", solver, out)
		}
		if !strings.Contains(out, "side effect:") {
			t.Errorf("solver %s: output lacks side effect:\n%s", solver, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope.txt", td("queries.dl"), td("delete.txt"), options{solver: "auto"}); err == nil {
		t.Error("missing db accepted")
	}
	if err := run(td("db.txt"), "nope.dl", td("delete.txt"), options{solver: "auto"}); err == nil {
		t.Error("missing queries accepted")
	}
	if err := run(td("db.txt"), td("queries.dl"), "nope.txt", options{solver: "auto"}); err == nil {
		t.Error("missing deletions accepted")
	}
	if err := run(td("db.txt"), td("queries.dl"), td("delete.txt"), options{solver: "no-such-solver"}); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestPickSolverAuto(t *testing.T) {
	dbSrc, err := os.ReadFile(td("db.txt"))
	if err != nil {
		t.Fatal(err)
	}
	db, err := textio.ParseDatabase(string(dbSrc))
	if err != nil {
		t.Fatal(err)
	}
	// Non-key-preserving: greedy.
	q3 := []*cq.Query{cq.MustParse("Q3(x, z) :- T1(x, y), T2(y, z, w)")}
	p, err := core.NewProblem(db, q3, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.PickSolver("auto", p)
	if err != nil || s.Name() != "greedy" {
		t.Errorf("auto(non-KP) = %v, %v", s, err)
	}
	// Single-tuple KP: single-exact.
	q4 := []*cq.Query{cq.MustParse("Q4(x, y, z) :- T1(x, y), T2(y, z, w)")}
	del := view.NewDeletion(view.TupleRef{View: 0, Tuple: tupleOf("John", "TKDE", "XML")})
	p4, err := core.NewProblem(db, q4, del)
	if err != nil {
		t.Fatal(err)
	}
	s, err = server.PickSolver("auto", p4)
	if err != nil || s.Name() != "single-tuple-exact" {
		t.Errorf("auto(single) = %v, %v", s, err)
	}
	// Multi-tuple KP, non-pivot: red-blue.
	del.Add(view.TupleRef{View: 0, Tuple: tupleOf("Joe", "TKDE", "XML")})
	p4b, err := core.NewProblem(db, q4, del)
	if err != nil {
		t.Fatal(err)
	}
	s, err = server.PickSolver("auto", p4b)
	if err != nil || s.Name() != "red-blue" {
		t.Errorf("auto(multi) = %v, %v", s, err)
	}
}

func tupleOf(vals ...string) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

func TestRunBatch(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return runBatch(td("db.txt"), td("queries.dl"), td("batch.txt"), 2, options{solver: "auto"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== item 0 ==", "== item 1 ==", "batch: 2 items, 2 ok, 0 failed, 2 workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output lacks %q:\n%s", want, out)
		}
	}
	// Input order: item 0's header precedes item 1's regardless of which
	// worker finished first.
	if strings.Index(out, "== item 0 ==") > strings.Index(out, "== item 1 ==") {
		t.Errorf("items out of order:\n%s", out)
	}
	if strings.Count(out, "feasible: true") != 2 {
		t.Errorf("want 2 feasible items:\n%s", out)
	}
}

func TestRunBatchBadItemIsolated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.txt")
	if err := os.WriteFile(path, []byte("Q4(John, TKDE, XML)\n\nNoSuchQuery(a, b)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return runBatch(td("db.txt"), td("queries.dl"), path, 2, options{solver: "auto"})
	})
	if err == nil {
		t.Fatal("batch with a bad item reported success")
	}
	if !strings.Contains(out, "batch: 2 items, 1 ok, 1 failed") {
		t.Errorf("summary missing:\n%s", out)
	}
	if !strings.Contains(out, "feasible: true") {
		t.Errorf("good item lost its result:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("bad item's error not reported:\n%s", out)
	}
}

func TestSplitStanzas(t *testing.T) {
	src := "# comment only\n\nQ4(a, b, c)\n\n\n%ignored\nQ4(d, e, f)\nQ4(g, h, i)\n\n   \n"
	got := splitStanzas(src)
	if len(got) != 2 {
		t.Fatalf("stanzas = %d (%q), want 2", len(got), got)
	}
	if !strings.Contains(got[0], "Q4(a, b, c)") || !strings.Contains(got[1], "Q4(g, h, i)") {
		t.Errorf("stanzas = %q", got)
	}
}

// dropIncumbentTimes removes the wall-clock incumbents[].at stamps from a
// decoded stats object, the one field two solves can never share.
func dropIncumbentTimes(stats map[string]any) {
	incs, _ := stats["incumbents"].([]any)
	for _, inc := range incs {
		delete(inc.(map[string]any), "at")
	}
}

// phaseNames lists phaseMs's keys in telemetry.Phases order, unknown
// names last in sorted order.
func phaseNames(phaseMs map[string]float64) []string {
	var names, rest []string
	for _, name := range telemetry.Phases {
		if _, ok := phaseMs[name]; ok {
			names = append(names, name)
		}
	}
	for name := range phaseMs {
		if !slices.Contains(telemetry.Phases[:], name) {
			rest = append(rest, name)
		}
	}
	slices.Sort(rest)
	return append(names, rest...)
}

// TestStatsJSONMatchesServer: delprop -stats json and POST /solve run the
// same engine, so they report the same stats object — objective, lower
// bound and quality ratio included — for the same instance and solver.
func TestStatsJSONMatchesServer(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(td(name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	h := server.NewHandler(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	for _, solver := range []string{"auto", "greedy", "red-blue", "red-blue-exact", "primal-dual", "brute-force"} {
		out, err := captureStdout(t, func() error {
			return run(td("db.txt"), td("queries.dl"), td("delete.txt"), options{solver: solver, stats: "json"})
		})
		if err != nil {
			t.Fatalf("solver %s: %v", solver, err)
		}
		var cli struct {
			PhaseMs map[string]float64 `json:"phaseMs"`
			Stats   map[string]any     `json:"stats"`
		}
		if err := json.Unmarshal([]byte(out[strings.Index(out, "\n{")+1:]), &cli); err != nil {
			t.Fatalf("solver %s: decode -stats json: %v\n%s", solver, err, out)
		}

		body, _ := json.Marshal(server.InstanceRequest{
			Database: read("db.txt"), Queries: read("queries.dl"), Deletions: read("delete.txt"), Solver: solver,
		})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("solver %s: /solve status %d: %s", solver, rec.Code, rec.Body)
		}
		var srv struct {
			PhaseMs map[string]float64 `json:"phaseMs"`
			Stats   map[string]any     `json:"stats"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &srv); err != nil {
			t.Fatal(err)
		}
		// One phase list by construction: the CLI's phases, /solve's and
		// telemetry.Phases name the same set.
		want := telemetry.Phases[:]
		if got := phaseNames(cli.PhaseMs); !slices.Equal(got, want) {
			t.Errorf("solver %s: -stats json phaseMs keys %v, want %v", solver, got, want)
		}
		if got := phaseNames(srv.PhaseMs); !slices.Equal(got, want) {
			t.Errorf("solver %s: /solve phaseMs keys %v, want %v", solver, got, want)
		}

		dropIncumbentTimes(cli.Stats)
		dropIncumbentTimes(srv.Stats)
		for _, k := range []string{"objective", "lowerBound", "qualityRatio"} {
			if _, ok := cli.Stats[k]; !ok {
				t.Errorf("solver %s: -stats json lacks %s: %v", solver, k, cli.Stats)
			}
		}
		a, _ := json.Marshal(cli.Stats)
		b, _ := json.Marshal(srv.Stats)
		if string(a) != string(b) {
			t.Errorf("solver %s: stats differ\n cli: %s\nhttp: %s", solver, a, b)
		}
	}
}

// TestRunSolverPanic: a panicking solver fails the run with an error
// instead of crashing the process.
func TestRunSolverPanic(t *testing.T) {
	core.RegisterSolver("test-panic", func() core.Solver { return &core.Faulty{Mode: core.FaultPanic} })
	_, err := captureStdout(t, func() error {
		return run(td("db.txt"), td("queries.dl"), td("delete.txt"), options{solver: "test-panic"})
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("run with a panicking solver: err = %v", err)
	}
}

// panicOnMulti panics on deletion requests naming more than one view
// tuple and solves the rest greedily, so one -batch stanza can fail while
// its sibling succeeds under the same -solver.
type panicOnMulti struct{}

func (panicOnMulti) Name() string { return "panic-on-multi" }

func (panicOnMulti) Solve(ctx context.Context, p *core.Problem) (*core.Solution, error) {
	if p.DeltaLen() > 1 {
		return (&core.Faulty{Mode: core.FaultPanic}).Solve(ctx, p)
	}
	return (&core.Greedy{}).Solve(ctx, p)
}

// TestRunBatchSolverPanicIsolated: in -batch, a stanza whose solve
// panics fails on its own while the others succeed.
func TestRunBatchSolverPanicIsolated(t *testing.T) {
	core.RegisterSolver("test-panic-on-multi", func() core.Solver { return panicOnMulti{} })
	path := filepath.Join(t.TempDir(), "batch.txt")
	if err := os.WriteFile(path, []byte("Q4(John, TKDE, XML)\n\nQ4(John, TKDE, XML)\nQ4(Joe, TKDE, XML)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return runBatch(td("db.txt"), td("queries.dl"), path, 2, options{solver: "test-panic-on-multi"})
	})
	if err == nil {
		t.Fatal("batch with a panicking item reported success")
	}
	if !strings.Contains(out, "batch: 2 items, 1 ok, 1 failed") {
		t.Errorf("summary missing:\n%s", out)
	}
	if !strings.Contains(out, "feasible: true") || !strings.Contains(out, "panicked") {
		t.Errorf("want one answer and one panic error:\n%s", out)
	}
}

// TestEmptyProgramRejected: an empty query program is malformed, as on
// delpropd's /solve, so the run fails with the daemon's error text
// instead of classifying and solving nothing.
func TestEmptyProgramRejected(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	out, _ := captureStdout(t, func() error {
		if code := runSolve([]string{"-db", td("db.txt"), "-queries", empty, "-delete", empty}, &stderr); code != 1 {
			t.Errorf("exit status %d, want 1", code)
		}
		return nil
	})
	if !strings.Contains(stderr.String(), "queries: empty program") {
		t.Errorf("stderr = %q, want the empty-program error", stderr.String())
	}
	if out != "" {
		t.Errorf("stdout = %q, want nothing", out)
	}
}

// TestBatchRejectsStatsJSON: -batch prints per-item counters only, so
// -batch -stats json is a usage error, like -batch -resilience.
func TestBatchRejectsStatsJSON(t *testing.T) {
	base := []string{"-db", td("db.txt"), "-queries", td("queries.dl"), "-delete", td("batch.txt"), "-batch"}
	for _, extra := range [][]string{{"-stats", "json"}, {"-resilience"}} {
		var stderr bytes.Buffer
		out, _ := captureStdout(t, func() error {
			if code := runSolve(append(slices.Clone(base), extra...), &stderr); code != 2 {
				t.Errorf("%v: exit status %d, want 2", extra, code)
			}
			return nil
		})
		if out != "" || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q: want only a usage error", extra, out, stderr.String())
		}
	}
	// -stats text stays allowed and prints the per-item counters.
	var stderr bytes.Buffer
	out, _ := captureStdout(t, func() error {
		if code := runSolve(append(slices.Clone(base), "-stats", "text"), &stderr); code != 0 {
			t.Errorf("-batch -stats text: exit status %d: %s", code, stderr.String())
		}
		return nil
	})
	if strings.Count(out, "nodes expanded: ") != 2 {
		t.Errorf("-batch -stats text lacks per-item counters:\n%s", out)
	}
}
