package checker

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delprop/tools/lint/analysis"
	"delprop/tools/lint/internal/load"
)

// demo flags every for statement, giving the tests a predictable
// diagnostic source.
var demo = &analysis.Analyzer{
	Name: "demo",
	Doc:  "flags every for statement",
	URL:  "docs/STATIC_ANALYSIS.md#demo",
	Run: func(pass *analysis.Pass) (any, error) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if loop, ok := n.(*ast.ForStmt); ok {
					pass.Reportf(loop.Pos(), "loop found")
				}
				return true
			})
		}
		return nil, nil
	},
}

func loadFixture(t *testing.T, src string) *load.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Patterns(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

func TestSuppressionSameLineAndLineAbove(t *testing.T) {
	pkg := loadFixture(t, `package fixture

func f() {
	for { //lint:ignore demo justified same-line suppression
		break
	}
	//lint:ignore demo justified line-above suppression
	for {
		break
	}
	for { // unsuppressed
		break
	}
	//lint:ignore otherlint wrong analyzer name does not suppress
	for {
		break
	}
}
`)
	findings, err := Run(pkg, []*analysis.Analyzer{demo})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (two suppressed, two kept): %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Analyzer != demo {
			t.Errorf("finding %v attributed to %s, want demo", f, f.Analyzer.Name)
		}
	}
	if got := findings[0].String(); !strings.Contains(got, "[demo]") || !strings.Contains(got, "docs/STATIC_ANALYSIS.md#demo") {
		t.Errorf("finding string %q should name the analyzer and link its catalog entry", got)
	}
}

func TestMalformedDirectiveIsReported(t *testing.T) {
	pkg := loadFixture(t, `package fixture

func f() {
	//lint:ignore demo
	for {
		break
	}
}
`)
	findings, err := Run(pkg, []*analysis.Analyzer{demo})
	if err != nil {
		t.Fatal(err)
	}
	var gotBad, gotLoop bool
	for _, f := range findings {
		switch f.Analyzer.Name {
		case "lintdirective":
			gotBad = true
			if !strings.Contains(f.Message, "justification") {
				t.Errorf("malformed-directive message %q should demand a justification", f.Message)
			}
		case "demo":
			gotLoop = true
		}
	}
	if !gotBad {
		t.Error("missing lintdirective finding for a justification-free //lint:ignore")
	}
	if !gotLoop {
		t.Error("a malformed directive must not suppress the underlying finding")
	}
}

func TestFindingsSortedByPosition(t *testing.T) {
	pkg := loadFixture(t, `package fixture

func b() {
	for {
		break
	}
}

func a() {
	for {
		break
	}
}
`)
	findings, err := Run(pkg, []*analysis.Analyzer{demo})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2", len(findings))
	}
	if findings[0].Pos.Line > findings[1].Pos.Line {
		t.Errorf("findings out of source order: %v", findings)
	}
}

// moduleDemo flags every function declaration across the loaded
// packages, once.
var moduleDemo = &analysis.Analyzer{
	Name: "moduledemo",
	Doc:  "flags every function declaration, module-wide",
	RunModule: func(passes []*analysis.Pass) error {
		for _, pass := range passes {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						pass.Reportf(fd.Pos(), "func found")
					}
				}
			}
		}
		return nil
	},
}

// TestModuleAnalyzerIgnoresDirectives pins the whole-module contract: Run
// (the vet path) skips the analyzer and reports a //lint:ignore naming
// it, and RunModule reports through the directive.
func TestModuleAnalyzerIgnoresDirectives(t *testing.T) {
	pkg := loadFixture(t, `package fixture

//lint:ignore moduledemo a module rule's exceptions live in its table
func f() {}
`)
	findings, err := Run(pkg, []*analysis.Analyzer{moduleDemo})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Analyzer.Name != "lintdirective" || findings[0].Pos.Line != 3 {
		t.Fatalf("Run: got %v, want one lintdirective finding on line 3", findings)
	}
	findings, err = RunModule([]*load.Package{pkg}, []*analysis.Analyzer{demo, moduleDemo}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Analyzer != moduleDemo || findings[0].Pos.Line != 4 {
		t.Fatalf("RunModule: got %v, want one moduledemo finding on line 4", findings)
	}
}
