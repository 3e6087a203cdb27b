package delprop_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every runnable example end to end and checks a
// characteristic output marker — keeping the documentation honest.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn go run; skipped in -short")
	}
	cases := []struct {
		dir     string
		markers []string
	}{
		{"quickstart", []string{"key-preserving=true", "side-effect=1"}},
		{"bibliography", []string{"brute-force optimum", "(paper: 1)", "single-tuple-exact picks"}},
		{"datacleaning", []string{"batch:", "sequential:", "balanced:"}},
		{"annotation", []string{"minimal optimal deletions", "narrowed from 3 to 2"}},
		{"provenance", []string{"lineage of V0(John,XML)", "rollback"}},
		{"resilience", []string{"verified empty after deletion: true", "exact fallback", "options for eliminating"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.dir, err, out)
			}
			for _, m := range c.markers {
				if !strings.Contains(string(out), m) {
					t.Errorf("example %s output missing %q:\n%s", c.dir, m, out)
				}
			}
		})
	}
}
