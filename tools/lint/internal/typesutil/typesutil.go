// Package typesutil holds the type-checker queries that several
// analyzers share.
package typesutil

import (
	"go/ast"
	"go/types"
)

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// Callee resolves a call to the function or method it names, or nil
// when it names none: a call of a func-typed variable or field, a
// function literal, a conversion or a builtin.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}
