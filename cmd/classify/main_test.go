package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

func TestClassifyEndToEnd(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run(filepath.Join("testdata", "db.txt"), filepath.Join("testdata", "queries.dl"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Q3 is not key-preserving; Q4 is.
	if !strings.Contains(out, "key-preserving=false") || !strings.Contains(out, "key-preserving=true") {
		t.Errorf("key-preserving flags missing:\n%s", out)
	}
	// Both queries use the same relations {T1, T2}: the dual hypergraph
	// (two identical edges) is a hypertree, but Q3 breaks the
	// all-key-preserving requirement, so the multi-query class is
	// unknown.
	if !strings.Contains(out, "all key-preserving=false") {
		t.Errorf("multi-query section wrong:\n%s", out)
	}
	if !strings.Contains(out, "unknown") {
		t.Errorf("expected unknown class:\n%s", out)
	}
}

func TestClassifyErrors(t *testing.T) {
	if err := run("nope", filepath.Join("testdata", "queries.dl")); err == nil {
		t.Error("missing db accepted")
	}
	if err := run(filepath.Join("testdata", "db.txt"), "nope"); err == nil {
		t.Error("missing queries accepted")
	}
}

// TestClassifyEmptyProgram: an empty query program is malformed, as on
// delpropd, instead of classifying as PTime.
func TestClassifyEmptyProgram(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.dl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return run(filepath.Join("testdata", "db.txt"), empty) })
	if err == nil || err.Error() != "queries: empty program" {
		t.Errorf("err = %v, want queries: empty program", err)
	}
	if out != "" {
		t.Errorf("stdout = %q, want nothing", out)
	}
}

// TestClassifyMinimizesFirst: cmd/classify classifies each query's core.
// Q(x) :- R(x, y), R(x, z) minimizes to one atom, which is
// self-join-free and head-dominated, so both single-query classes are
// PTime; POST /classify, which takes the query as written, answers
// unknown for both.
func TestClassifyMinimizesFirst(t *testing.T) {
	dir := t.TempDir()
	db, q := filepath.Join(dir, "db.txt"), filepath.Join(dir, "q.dl")
	if err := os.WriteFile(db, []byte("relation R(A, B*)\nR(a, 1)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(q, []byte("Q(x) :- R(x, y), R(x, z)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return run(db, q) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  minimized to core: Q(x) :- R(x,z)\n",
		"sj-free=true",
		"  source side-effect: PTime\n",
		"  view side-effect:   PTime\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
