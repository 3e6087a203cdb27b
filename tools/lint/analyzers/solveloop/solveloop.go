// Package solveloop enforces cooperative cancellation in solver search
// loops.
//
// The delprop solvers run potentially exponential searches (Table IV of
// the source paper), so every loop in a Solve(ctx, …) call graph that
// can iterate an unbounded number of times must poll its context: a
// st.Checkpoint()/checkCtx call, a ctx.Done()/ctx.Err() poll, or a call
// that forwards the context to a callee that polls. Without one, a
// caller's deadline or disconnect cannot stop the search
// (internal/core/cancel.go documents the protocol).
//
// Roots of the call graph are (a) methods named Solve whose first
// parameter is a context.Context, anywhere, and (b) exported functions
// and methods taking a context in the packages named by the -entry flag
// (the setcover branch-and-bound engines). The analysis is
// intra-package: a call that forwards ctx discharges the obligation at
// the call site, and the callee is independently analyzed when it is a
// root or reachable.
//
// Loop classification:
//
//   - `for { … }` and `for cond { … }` (no init/post) are search loops:
//     nothing bounds their trip count, so they must checkpoint.
//   - three-clause `for` loops must checkpoint unless their condition is
//     bounded by a compile-time constant or by len()/cap() of a value
//     (one sweep over materialized data is the accepted checkpoint
//     granularity; `mask < 1<<n` is not bounded in that sense).
//   - `range` loops are exempt: they perform one pass over a
//     materialized collection.
package solveloop

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"delprop/tools/lint/analysis"
	"delprop/tools/lint/internal/typesutil"
)

// Analyzer implements the solveloop check.
var Analyzer = &analysis.Analyzer{
	Name: "solveloop",
	Doc:  "unbounded loops in Solve call graphs must hit a cancellation checkpoint",
	URL:  "docs/STATIC_ANALYSIS.md#solveloop",
	Run:  run,
}

// entryPackages lists import-path suffixes whose exported context-taking
// functions are additional call-graph roots.
const entryPackages = "delprop/internal/core,delprop/internal/setcover"

func run(pass *analysis.Pass) (any, error) {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	isEntryPkg := false
	if pass.Pkg != nil {
		for _, suffix := range strings.Split(entryPackages, ",") {
			if strings.HasSuffix(pass.Pkg.Path(), suffix) {
				isEntryPkg = true
				break
			}
		}
	}

	// Roots: Solve(ctx, …) methods anywhere; exported ctx-takers in entry
	// packages.
	reachable := make(map[*types.Func]bool)
	var worklist []*types.Func
	add := func(fn *types.Func) {
		if fn != nil && !reachable[fn] && decls[fn] != nil {
			reachable[fn] = true
			worklist = append(worklist, fn)
		}
	}
	for fn, fd := range decls {
		if !hasLeadingCtx(fn) {
			continue
		}
		if fd.Name.Name == "Solve" || (isEntryPkg && fd.Name.IsExported()) {
			add(fn)
		}
	}

	// Close over same-package static calls (closures inside a body are
	// part of that body and walked with it).
	for len(worklist) > 0 {
		fn := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			add(typesutil.Callee(pass.TypesInfo, call))
			return true
		})
	}

	for fn := range reachable {
		checkLoops(pass, decls[fn])
	}
	return nil, nil
}

// hasLeadingCtx reports whether fn's first parameter is context.Context.
func hasLeadingCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return typesutil.IsContext(sig.Params().At(0).Type())
}

// checkLoops walks one function body and reports unbounded loops that
// never poll the context.
func checkLoops(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if bounded(pass, loop) {
			return true
		}
		if !pollsContext(pass, loop.Body) {
			what := "unbounded for loop"
			if loop.Cond == nil {
				what = "infinite for loop"
			}
			pass.ReportRangef(loopHeader{loop}, "%s in the Solve call graph of %s has no cancellation checkpoint (call st.Checkpoint/checkCtx, poll ctx, or forward ctx to the loop body's callee)", what, fd.Name.Name)
		}
		return true
	})
}

// loopHeader narrows a for statement's reported range to its header line.
type loopHeader struct{ loop *ast.ForStmt }

func (h loopHeader) Pos() token.Pos { return h.loop.Pos() }
func (h loopHeader) End() token.Pos { return h.loop.Body.Lbrace }

// bounded reports whether the loop's trip count is bounded by a constant
// or by the length/capacity of materialized data.
func bounded(pass *analysis.Pass, loop *ast.ForStmt) bool {
	if loop.Init == nil && loop.Post == nil {
		return false // `for {}` or `for cond {}`: a search loop
	}
	if loop.Cond == nil {
		return false // `for i := 0; ; i++`
	}
	cond, ok := ast.Unparen(loop.Cond).(*ast.BinaryExpr)
	if !ok {
		return false // e.g. `for ; scanner.Scan(); `
	}
	switch cond.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
		return boundedExpr(pass, cond.X) || boundedExpr(pass, cond.Y)
	}
	return false
}

// boundedExpr reports whether e is a compile-time constant or a
// len()/cap() application.
func boundedExpr(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				return obj.Name() == "len" || obj.Name() == "cap"
			}
		}
	}
	return false
}

// pollsContext reports whether the loop body contains a cancellation
// checkpoint in any of the accepted forms.
func pollsContext(pass *analysis.Pass, body *ast.BlockStmt) bool {
	polls := false
	ast.Inspect(body, func(n ast.Node) bool {
		if polls {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if strings.HasPrefix(fun.Name, "checkCtx") {
				polls = true
				return false
			}
		case *ast.SelectorExpr:
			// st.Checkpoint(); ctx.Done(); ctx.Err().
			if fun.Sel.Name == "Checkpoint" {
				polls = true
				return false
			}
			if (fun.Sel.Name == "Done" || fun.Sel.Name == "Err") && typesutil.IsContext(pass.TypesInfo.TypeOf(fun.X)) {
				polls = true
				return false
			}
		}
		// A call that forwards the context delegates the obligation.
		for _, arg := range call.Args {
			if typesutil.IsContext(pass.TypesInfo.TypeOf(arg)) {
				polls = true
				return false
			}
		}
		return true
	})
	return polls
}
