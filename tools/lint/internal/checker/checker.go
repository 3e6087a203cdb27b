// Package checker runs delproplint analyzers over loaded packages,
// applies //lint:ignore suppression, and implements both driver modes of
// cmd/delproplint (standalone patterns and the `go vet -vettool`
// unitchecker protocol).
package checker

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"delprop/tools/lint/analysis"
	"delprop/tools/lint/internal/load"
)

// Finding is one diagnostic bound to its analyzer and resolved position.
type Finding struct {
	Analyzer *analysis.Analyzer
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	msg := fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer.Name)
	if f.Analyzer.URL != "" {
		msg += " (" + f.Analyzer.URL + ")"
	}
	return msg
}

// Run applies each analyzer to pkg and returns the surviving findings,
// ordered by position. Diagnostics on lines governed by a matching
// //lint:ignore directive are dropped; directives without a
// justification — and dangling //delprop: directives — are themselves
// reported. All of the package's files are analyzed, including any under
// a testdata directory (the analysistest harness depends on that).
func Run(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	return run(pkg, pkg.Files, analyzers)
}

// RunScoped is Run for driver use: files under a testdata directory are
// excluded up front. Fixture files are analyzer inputs, not code — when
// the suite lints its own module (or a caller points a pattern inside a
// fixture tree), their deliberate violations must not surface as real
// findings.
func RunScoped(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	return run(pkg, scopedFiles(pkg), analyzers)
}

func scopedFiles(pkg *load.Package) []*ast.File {
	files := pkg.Files[:0:0]
	for _, f := range pkg.Files {
		if !isTestdataPath(pkg.Fset.Position(f.Pos()).Filename) {
			files = append(files, f)
		}
	}
	return files
}

// RunModule applies the whole-module analyzers among analyzers once to
// all of pkgs (scoped as RunScoped when scoped is set) and returns their
// findings, ordered by position. //lint:ignore does not apply to them: a
// module rule's exceptions live in its own reviewed table.
func RunModule(pkgs []*load.Package, analyzers []*analysis.Analyzer, scoped bool) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a := a
		passes := make([]*analysis.Pass, len(pkgs))
		for i, pkg := range pkgs {
			pkg := pkg
			files := pkg.Files
			if scoped {
				files = scopedFiles(pkg)
			}
			passes[i] = &analysis.Pass{Analyzer: a, Fset: pkg.Fset, Files: files, Pkg: pkg.Types, TypesInfo: pkg.Info}
			passes[i].Report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{Analyzer: a, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
			}
		}
		if err := a.RunModule(passes); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

// isTestdataPath reports whether a file path has a testdata path element.
func isTestdataPath(name string) bool {
	name = strings.ReplaceAll(name, "\\", "/")
	return strings.Contains(name, "/testdata/") || strings.HasPrefix(name, "testdata/")
}

func run(pkg *load.Package, files []*ast.File, analyzers []*analysis.Analyzer) ([]Finding, error) {
	ignores, bad := collectIgnores(pkg, files)
	for _, d := range ignores {
		for _, name := range d.analyzers {
			for _, a := range analyzers {
				if a.Name == name && a.RunModule != nil {
					bad = append(bad, Finding{
						Analyzer: badDirectiveAnalyzer,
						Pos:      d.pos,
						Message:  "//lint:ignore cannot suppress the whole-module " + name + " analyzer; its exceptions live in its own table",
					})
				}
			}
		}
	}

	var findings []Finding
	findings = append(findings, bad...)
	findings = append(findings, validateDirectives(pkg, files)...)
	for _, a := range analyzers {
		if a.Run == nil {
			continue // a whole-module analyzer: see RunModule
		}
		a := a
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if ignores.match(a.Name, pos) {
				return
			}
			findings = append(findings, Finding{Analyzer: a, Pos: pos, Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer.Name < b.Analyzer.Name
	})
}

// ignoreDirective is the parsed form of
//
//	//lint:ignore analyzer[,analyzer...] justification
//
// It suppresses matching diagnostics on its own line and on the line
// immediately below (so it can trail the offending statement or sit on
// its own line above it).
type ignoreDirective struct {
	pos       token.Position
	analyzers []string
}

type ignoreSet []ignoreDirective

func (s ignoreSet) match(analyzer string, pos token.Position) bool {
	for _, d := range s {
		if d.pos.Filename != pos.Filename {
			continue
		}
		if pos.Line != d.pos.Line && pos.Line != d.pos.Line+1 {
			continue
		}
		for _, a := range d.analyzers {
			if a == analyzer || a == "*" {
				return true
			}
		}
	}
	return false
}

// badDirectiveAnalyzer attributes findings about malformed directives.
var badDirectiveAnalyzer = &analysis.Analyzer{
	Name: "lintdirective",
	Doc:  "reports //lint:ignore directives without a justification",
	URL:  "docs/STATIC_ANALYSIS.md#suppressing-findings",
}

func collectIgnores(pkg *load.Package, files []*ast.File) (ignoreSet, []Finding) {
	var set ignoreSet
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(text)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 3 {
					bad = append(bad, Finding{
						Analyzer: badDirectiveAnalyzer,
						Pos:      pos,
						Message:  "malformed //lint:ignore directive: need an analyzer name and a justification",
					})
					continue
				}
				set = append(set, ignoreDirective{
					pos:       pos,
					analyzers: strings.Split(fields[1], ","),
				})
			}
		}
	}
	return set, bad
}
