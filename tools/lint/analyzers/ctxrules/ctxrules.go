// Package ctxrules enforces the repo's context.Context hygiene rules:
//
//  1. context.Context parameters come first (after the receiver), so
//     cancellation plumbing is visible at every call site;
//  2. contexts are never stored in struct fields — a stored context
//     outlives its cancellation scope and silently decouples a solver
//     from its caller's deadline;
//  3. values of static type error are never type-asserted or
//     type-switched to concrete error types such as *core.Interrupted;
//     wrapped errors (the norm since solvers wrap context errors) make
//     direct assertions silently miss, so errors.As / errors.Is are
//     mandatory.
package ctxrules

import (
	"go/ast"
	"go/types"

	"delprop/tools/lint/analysis"
	"delprop/tools/lint/internal/typesutil"
)

// Analyzer implements the ctxrules checks.
var Analyzer = &analysis.Analyzer{
	Name: "ctxrules",
	Doc:  "context.Context placement and errors.As discipline for solver errors",
	URL:  "docs/STATIC_ANALYSIS.md#ctxrules",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	errType := types.Universe.Lookup("error").Type()
	errIface := errType.Underlying().(*types.Interface)

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkParams(pass, n.Type)
			case *ast.FuncLit:
				checkParams(pass, n.Type)
			case *ast.StructType:
				checkFields(pass, n)
			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return true // x.(type) guard: handled at the TypeSwitchStmt
				}
				checkAssert(pass, n.X, n.Type, errType, errIface)
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(pass, n, errType, errIface)
			}
			return true
		})
	}
	return nil, nil
}

// checkParams flags context.Context parameters that are not first.
func checkParams(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	pos := 0 // parameter index, counting each name in grouped params
	for fieldIdx, field := range ft.Params.List {
		width := len(field.Names)
		if width == 0 {
			width = 1
		}
		if typesutil.IsContext(pass.TypesInfo.TypeOf(field.Type)) && !(fieldIdx == 0 && pos == 0) {
			pass.ReportRangef(field, "context.Context must be the first parameter")
		}
		pos += width
	}
}

// checkFields flags struct fields of type context.Context.
func checkFields(pass *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if typesutil.IsContext(pass.TypesInfo.TypeOf(field.Type)) {
			pass.ReportRangef(field, "do not store context.Context in a struct; pass it per call so cancellation follows the caller")
		}
	}
}

// checkAssert flags err.(*SomeError) where err's static type is error.
func checkAssert(pass *analysis.Pass, x ast.Expr, target ast.Expr, errType types.Type, errIface *types.Interface) {
	xt := pass.TypesInfo.TypeOf(x)
	if xt == nil || !types.Identical(xt, errType) {
		return
	}
	tt := pass.TypesInfo.TypeOf(target)
	if tt == nil || types.IsInterface(tt) {
		return // asserting to another interface narrows, which is fine
	}
	if types.Implements(tt, errIface) {
		pass.ReportRangef(target, "direct type assertion on an error misses wrapped errors; use errors.As")
	}
}

// checkTypeSwitch flags concrete error cases in a type switch over an
// error value.
func checkTypeSwitch(pass *analysis.Pass, sw *ast.TypeSwitchStmt, errType types.Type, errIface *types.Interface) {
	var x ast.Expr
	switch s := sw.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := s.X.(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	case *ast.AssignStmt:
		if ta, ok := s.Rhs[0].(*ast.TypeAssertExpr); ok {
			x = ta.X
		}
	}
	if x == nil {
		return
	}
	xt := pass.TypesInfo.TypeOf(x)
	if xt == nil || !types.Identical(xt, errType) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		for _, t := range cc.List {
			tt := pass.TypesInfo.TypeOf(t)
			if tt == nil || types.IsInterface(tt) {
				continue
			}
			if b, ok := tt.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
				continue
			}
			if types.Implements(tt, errIface) {
				pass.ReportRangef(t, "type switch on an error misses wrapped errors; use errors.As")
			}
		}
	}
}
