package main

import (
	"path/filepath"
	"testing"

	"delprop/tools/lint/analysistest"
	"delprop/tools/lint/analyzers/testonly"
)

// TestSuiteCrossFixture runs every registered analyzer over one fixture
// file that violates each of them, catching diagnostic-position
// regressions when the loader or driver changes. testonly runs with an
// empty allowlist: the repository's entries name declarations the
// fixture does not have.
func TestSuiteCrossFixture(t *testing.T) {
	suite := Suite()
	for i, a := range suite {
		if a == testonly.Analyzer {
			suite[i] = testonly.New(nil)
		}
	}
	analysistest.RunAnalyzers(t, filepath.Join("testdata", "src", "cross"), suite...)
}
