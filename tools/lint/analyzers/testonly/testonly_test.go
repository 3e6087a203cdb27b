package testonly_test

import (
	"path/filepath"
	"testing"

	"delprop/tools/lint/analysistest"
	"delprop/tools/lint/analyzers/testonly"
)

func TestTestOnly(t *testing.T) {
	a := testonly.New([]testonly.Entry{
		{Object: "fixture/internal/lib.Allowed", Kind: testonly.SharedOracle, Reason: "fixture entry"},
		{Object: "fixture/internal/lib.Used", Kind: testonly.SharedOracle, Reason: "fixture entry gone stale"},
		{Object: "fixture/internal/lib.Gone", Kind: testonly.SharedOracle, Reason: "fixture entry for a deleted function"},
		{Object: "fixture/internal/gone.Thing", Kind: testonly.SharedOracle, Reason: "fixture entry for a deleted package"},
		{Object: "other/internal/x.Unloaded", Kind: testonly.SharedOracle, Reason: "a package outside the loaded module"},
	})
	analysistest.Run(t, filepath.Join("testdata", "src", "fixture"), a)
}

// TestAllowEntries holds the repository's table to its three kinds: each
// entry has a known kind, a reason, and a distinct object.
func TestAllowEntries(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range testonly.Allow {
		if e.Kind < testonly.PaperConstruction || e.Kind > testonly.LoadModuleAPI {
			t.Errorf("%s: unknown kind %d", e.Object, e.Kind)
		}
		if e.Reason == "" {
			t.Errorf("%s: no reason", e.Object)
		}
		if seen[e.Object] {
			t.Errorf("%s: listed twice", e.Object)
		}
		seen[e.Object] = true
	}
}
