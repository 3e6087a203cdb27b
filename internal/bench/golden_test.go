package bench

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	durationCell = regexp.MustCompile(`\b\d+(?:\.\d+)?(?:ns|µs|ms|s)\b`)
	fittedPower  = regexp.MustCompile(`\|D\|\^-?[\d.]+ \(R²=-?[\d.]+\)`)
	padding      = regexp.MustCompile(` {2,}`)
	separator    = regexp.MustCompile(`^[- ]+$`)
)

// normalizeTables replaces what varies from run to run in experiment
// output — wall-clock cells and the fitted runtime exponent — with fixed
// tokens, and collapses the column padding those cells cause, so the
// rest of each table (rows, ratios, bounds, search counters) compares
// byte for byte.
func normalizeTables(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		l = durationCell.ReplaceAllString(l, "<t>")
		l = fittedPower.ReplaceAllString(l, "|D|^<k> (R²=<r2>)")
		l = padding.ReplaceAllString(l, " ")
		if separator.MatchString(l) {
			l = "-"
		}
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

// TestExperimentTablesGolden pins the tables of the ratio and timing
// experiments (E8–E14, E18) in testdata/tables.golden, normalized by
// normalizeTables. The golden was captured before those experiments
// moved onto the shared solve helper and ratio runner; a mismatch means
// an experiment now solves different instances, in a different order, or
// aggregates them differently.
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short")
	}
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, id := range []string{"E8", "E9", "E10", "E11", "E12", "E13", "E14", "E18"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		buf.WriteString("### " + id + "\n")
		if err := e.Run(&buf, nil); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	got := normalizeTables(buf.String())
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs:\n got  %q\n want %q\nfull output:\n%s", i+1, g, w, got)
		}
	}
}
