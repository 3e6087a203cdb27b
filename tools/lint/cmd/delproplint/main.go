// Command delproplint is the delprop repository's vet suite: it
// mechanically enforces the solver-stack invariants documented in
// docs/STATIC_ANALYSIS.md.
//
// Run standalone over the module in the current directory:
//
//	delproplint ./...
//
// or as a vet tool, which also covers test files:
//
//	go vet -vettool=$(command -v delproplint) ./...
//
// The whole-module testonly pass needs every package at once, so only
// the standalone mode runs it (delproplint -testonly ./...).
package main

import (
	"delprop/tools/lint/analysis"
	"delprop/tools/lint/analyzers/atomicmix"
	"delprop/tools/lint/analyzers/ctxrules"
	"delprop/tools/lint/analyzers/golife"
	"delprop/tools/lint/analyzers/lockguard"
	"delprop/tools/lint/analyzers/mapdet"
	"delprop/tools/lint/analyzers/metriclabels"
	"delprop/tools/lint/analyzers/nilsafe"
	"delprop/tools/lint/analyzers/solveloop"
	"delprop/tools/lint/analyzers/testonly"
	"delprop/tools/lint/internal/checker"
)

// Suite is the full analyzer set, in the order diagnostics list them.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxrules.Analyzer,
		golife.Analyzer,
		lockguard.Analyzer,
		mapdet.Analyzer,
		metriclabels.Analyzer,
		nilsafe.Analyzer,
		solveloop.Analyzer,
		testonly.Analyzer,
	}
}

func main() {
	checker.Main(Suite()...)
}
