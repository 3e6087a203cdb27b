package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"delprop/internal/benchkit"
)

func TestTableFprint(t *testing.T) {
	tbl := &Table{Title: "demo", Headers: []string{"a", "bbbb"}}
	tbl.Add("x", "y")
	tbl.Add("longer", "z")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "longer") {
		t.Errorf("output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 found")
	}
	if len(All()) != 20 {
		t.Errorf("experiments = %d, want 20", len(All()))
	}
}

// TestAllExperimentsRun executes every experiment end to end with a
// recorder; this is the regression net for the whole reproduction. No
// quality record may violate its guarantee, every record is labelled,
// and an experiment that records quality must also record search
// progress.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			rec := &benchkit.Recorder{}
			if err := e.Run(&buf, rec); err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Artifact, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
			if strings.Contains(buf.String(), "MISMATCH") {
				t.Errorf("%s output reports a mismatch with the paper:\n%s", e.ID, buf.String())
			}
			quality := rec.QualityRecords()
			for _, q := range quality {
				if q.Case == "" || q.Solver == "" {
					t.Errorf("%s: unlabelled quality record %+v", e.ID, q)
				}
				if q.Violated {
					t.Errorf("%s reports a guarantee violation: %+v", e.ID, q)
				}
			}
			if s := rec.Search(); len(quality) > 0 && s.NodesExpanded == 0 {
				t.Errorf("%s recorded quality but no search progress: %+v", e.ID, s)
			}
		})
	}
}

// TestExperimentsRecordStructuredSamples runs one ratio experiment with a
// recorder and checks the structured samples arrive: per-instance quality
// records under the paper guarantee, and nonzero search counters.
func TestExperimentsRecordStructuredSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short")
	}
	e, ok := ByID("E8")
	if !ok {
		t.Fatal("E8 missing")
	}
	rec := &benchkit.Recorder{}
	if err := e.Run(io.Discard, rec); err != nil {
		t.Fatal(err)
	}
	quality := rec.QualityRecords()
	if len(quality) == 0 {
		t.Fatal("E8 recorded no quality records")
	}
	for _, q := range quality {
		if q.Solver != "red-blue" || q.Guarantee <= 0 {
			t.Errorf("unexpected quality record %+v", q)
		}
		if q.Violated {
			t.Errorf("E8 reports a guarantee violation: %+v", q)
		}
	}
	if s := rec.Search(); s.NodesExpanded == 0 {
		t.Errorf("E8 recorded no search progress: %+v", s)
	}
}

// TestFig3Output asserts the measured hypertree column matches the paper
// column in the rendered table.
func TestFig3Output(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig3(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Q1 = {Q1,Q3,Q4,Q5}",
		"Q2 = {Q1,Q3,Q5}",
		"Q3 = {Q1,Q2,Q5}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing row %q in:\n%s", want, out)
		}
	}
	// Every row's measured value equals the paper value: the two cells
	// render identically, so a disagreement would show as distinct
	// endings.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Q") && strings.Contains(line, "H[") {
			if strings.Count(line, "hypertree")%2 != 0 {
				t.Errorf("measured/paper disagree in row: %s", line)
			}
		}
	}
}
