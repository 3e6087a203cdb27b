// Package analysis is a self-contained, stdlib-only re-implementation of
// the subset of golang.org/x/tools/go/analysis that delproplint needs.
//
// The delprop repository builds in hermetic environments with no module
// proxy, so the lint module cannot depend on x/tools. The API mirrors the
// upstream shape (Analyzer, Pass, Diagnostic) closely enough that the
// analyzers under ../analyzers could be ported to the real framework by
// changing one import path. Facts, Requires and ResultOf are deliberately
// omitted: each analyzer either sees one package (Run) or, in place of
// facts, every loaded package at once (RunModule).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, its -<name> enable
	// flag and //lint:ignore directives. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation. The first line is the
	// one-sentence summary shown by -help.
	Doc string

	// URL points at the invariant catalog entry explaining the rule's
	// rationale (docs/STATIC_ANALYSIS.md anchors).
	URL string

	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)

	// RunModule, set in place of Run, applies a whole-module analyzer
	// once to one Pass per loaded package. The vet protocol hands the
	// tool one package per process, so only the standalone patterns mode
	// and analysistest run such analyzers; vet mode skips them.
	RunModule func([]*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer run with a single type-checked package and a
// sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report emits one diagnostic. The driver fills this in; it applies
	// //lint:ignore suppression before recording the finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos // optional: end of the offending region
	Category string    // optional sub-rule tag, e.g. "ctxfirst"
	Message  string
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportRangef emits a diagnostic covering an AST node.
func (p *Pass) ReportRangef(rng ast.Node, format string, args ...any) {
	p.Report(Diagnostic{Pos: rng.Pos(), End: rng.End(), Message: fmt.Sprintf(format, args...)})
}
