// Package golife forbids fire-and-forget goroutines in the daemon
// packages.
//
// delpropd is a long-running process: every goroutine the server,
// telemetry, admission or solver-core packages launch must have a
// bounded lifetime, or a drain (SIGTERM) leaves work running behind the
// closed listener and leaks build up over days. A `go` statement passes
// when the launched body shows lifetime evidence:
//
//   - it references a context.Context (checks ctx.Done()/ctx.Err(), or
//     forwards ctx to a callee that does — the solveloop analyzer owns
//     the callee obligation);
//   - it participates in a sync.WaitGroup (wg.Done/wg.Add), so someone
//     Waits for it;
//   - it coordinates over channels: sends, receives, selects, closes, or
//     ranges over a channel (a close from the owner ends a range loop).
//
// Launching a named function is judged by its arguments (a context,
// channel or *sync.WaitGroup argument counts as evidence) or, when the
// callee is declared in the same package, by its body.
//
// The check applies only inside the packages named by the -packages
// flag, and never to _test.go files (tests are bounded by the test
// binary's lifetime and commonly launch helper goroutines).
package golife

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"delprop/tools/lint/analysis"
	"delprop/tools/lint/internal/typesutil"
)

// Analyzer implements the golife check.
var Analyzer = &analysis.Analyzer{
	Name: "golife",
	Doc:  "goroutines in daemon packages must have a bounded lifetime (ctx, WaitGroup, or channel)",
	URL:  "docs/STATIC_ANALYSIS.md#golife",
	Run:  run,
}

// daemonPackages lists import-path suffixes whose go statements are
// checked.
const daemonPackages = "delprop/internal/server,delprop/internal/telemetry,delprop/internal/core,delprop/internal/admission"

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil || !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !bounded(pass, gs.Call, decls) {
				pass.ReportRangef(gs, "goroutine has no bounded lifetime: tie it to a context, a sync.WaitGroup, or a channel close (fire-and-forget goroutines leak in the daemon)")
			}
			return true
		})
	}
	return nil, nil
}

func inScope(path string) bool {
	for _, suffix := range strings.Split(daemonPackages, ",") {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// bounded reports whether the goroutine launched by call shows lifetime
// evidence.
func bounded(pass *analysis.Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) bool {
	// Arguments evaluated at launch: a context, channel or WaitGroup
	// handed to the goroutine is the evidence.
	for _, arg := range call.Args {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && lifetimeType(t) {
			return true
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return hasEvidence(pass, fun.Body)
	default:
		// Method values: a bounded receiver type (e.g. sub.Close) counts.
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if t := pass.TypesInfo.TypeOf(sel.X); t != nil && lifetimeType(t) {
				return true
			}
		}
		if fn := typesutil.Callee(pass.TypesInfo, call); fn != nil {
			if fd := decls[fn]; fd != nil {
				return hasEvidence(pass, fd.Body)
			}
			// Callee outside the package: its signature already failed the
			// argument test, so there is nothing tying the goroutine down.
			return false
		}
	}
	return false
}

// hasEvidence scans a body for lifetime evidence: context use, WaitGroup
// use, or channel coordination.
func hasEvidence(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil && isChan(t) {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if t := pass.TypesInfo.TypeOf(n.Args[0]); t != nil && isChan(t) {
					found = true
				}
			}
		case *ast.Ident:
			if t := pass.TypesInfo.TypeOf(n); t != nil && (typesutil.IsContext(t) || isWaitGroup(t)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// lifetimeType reports whether t is evidence when handed to a goroutine:
// a context.Context, a channel, or a *sync.WaitGroup.
func lifetimeType(t types.Type) bool {
	return typesutil.IsContext(t) || isChan(t) || isWaitGroup(t)
}

func isChan(t types.Type) bool {
	_, ok := types.Unalias(t.Underlying()).(*types.Chan)
	return ok
}

func isWaitGroup(t types.Type) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
