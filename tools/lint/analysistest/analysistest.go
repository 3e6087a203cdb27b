// Package analysistest runs a delproplint analyzer over a testdata
// fixture module and compares its findings against `// want` comments,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is a directory containing a go.mod (so the loader can use
// the go command offline; fixtures may only import the standard library
// and their own packages). Expectations annotate the offending line:
//
//	for {            // want `no cancellation checkpoint`
//	    work()
//	}
//
// Each backquoted or double-quoted argument of a want comment is an
// anchored-nowhere regexp that must match the message of a distinct
// diagnostic reported on that line; diagnostics without a matching want
// and wants without a matching diagnostic both fail the test.
package analysistest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"delprop/tools/lint/analysis"
	"delprop/tools/lint/internal/checker"
	"delprop/tools/lint/internal/load"
)

// wantRE extracts quoted expectations from a want comment's payload.
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// Run loads the fixture module rooted at dir and checks analyzer a's
// findings (with //lint:ignore suppression applied, so fixtures can
// exercise directives) against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	RunAnalyzers(t, dir, a)
}

// RunAnalyzers is Run for several analyzers at once: the fixture's want
// comments must account for every diagnostic of every analyzer. Running
// the full suite over one fixture pins the diagnostic positions across
// loader and driver changes.
func RunAnalyzers(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkgs, err := load.Patterns(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s contains no packages", dir)
	}

	type key struct {
		file string
		line int
	}
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[key][]*want)
	var findings []checker.Finding

	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %v", dir, e)
		}
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
						expr := m[1]
						if expr == "" {
							expr = m[2]
						}
						re, err := regexp.Compile(expr)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
						}
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &want{re: re})
					}
				}
			}
		}
		fs, err := checker.Run(pkg, analyzers)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", pkg.ImportPath, err)
		}
		findings = append(findings, fs...)
	}
	fs, err := checker.RunModule(pkgs, analyzers, false)
	if err != nil {
		t.Fatalf("running module analyzers on %s: %v", dir, err)
	}
	findings = append(findings, fs...)

	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", f)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", fmt.Sprintf("%s:%d", k.file, k.line), w.re)
			}
		}
	}
}
