// Package mapdet flags nondeterminism hazards from Go's randomized map
// iteration order.
//
// Solver output must be reproducible: ΔD solution sets, /solve
// responses and bench tables are diffed across runs and asserted in
// tests, so a slice built by ranging over a map — or bytes written to an
// output stream during a map range — silently varies between runs
// unless the iteration is sorted.
//
// Four patterns are reported:
//
//  1. a `range` over a map whose body appends to a slice declared
//     outside the loop, when the function never afterwards passes that
//     slice to sort.* / slices.Sort*;
//  2. a write/print/encode call executed inside a map-range body
//     (fmt.Fprintf, Write, Encode, …): the emission order is random;
//  3. a pick: inside a map-range body, a plain `=` assignment to a
//     variable declared outside the loop, or a `return`, whose value is
//     built from the range key or value (directly or through loop-local
//     variables). Which iteration wins — the first match, the last
//     write, the tie-break of an argmin — follows the random order. A
//     numeric extremum (`if v > hi { hi = v }`, `hi = max(hi, v)`) is
//     order-independent and not reported;
//  4. a float sum: inside a map-range body, `+=` or `-=` on a float
//     variable declared outside the loop. Float addition is not
//     associative, so the sum's last bits follow the random order, and a
//     later comparison of two such sums can flip between runs.
//
// Where iteration order is genuinely irrelevant, suppress with
//
//	//lint:ignore mapdet <why the order cannot be observed>
package mapdet

import (
	"go/ast"
	"go/token"
	"go/types"

	"delprop/tools/lint/analysis"
)

// Analyzer implements the mapdet checks.
var Analyzer = &analysis.Analyzer{
	Name: "mapdet",
	Doc:  "map iteration must not leak its random order into slices or output streams",
	URL:  "docs/STATIC_ANALYSIS.md#mapdet",
	Run:  run,
}

// emitNames are method/function names that move bytes toward an output
// when called inside a map-range body. To avoid flagging unrelated
// methods that share these names (relation.Tuple.Encode encodes a tuple
// to a string, for example), a method call only counts when its receiver
// is a recognized emitter: a fmt package function, a standard-library
// writer/encoder, or any type implementing io.Writer.
var emitNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// emitterPkgs are standard-library packages whose types emit output.
var emitterPkgs = map[string]bool{
	"io": true, "bufio": true, "bytes": true, "strings": true,
	"fmt": true, "net/http": true,
	"encoding/json": true, "encoding/gob": true, "encoding/xml": true,
	"encoding/csv": true, "text/tabwriter": true,
}

// writerIface is io.Writer, built structurally so the analyzer does not
// depend on the analyzed package importing io.
var writerIface = func() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]), types.NewVar(token.NoPos, nil, "err", errType)),
		false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	picked := make(map[ast.Node]bool) // picks already reported by an enclosing map range
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMap(pass.TypesInfo.TypeOf(rng.X)) {
			return true
		}
		checkMapRange(pass, body, rng)
		checkPicks(pass, rng, picked)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if v := floatSumTarget(pass, n); v != nil && !declaredWithin(v, rng) {
				pass.ReportRangef(n, "%s sums floats in map iteration order, so its last bits vary between runs; iterate over sorted keys", v.Name())
			}
			for i, rhs := range n.Rhs {
				target := appendTarget(pass, n, i, rhs)
				if target == nil {
					continue
				}
				if declaredWithin(target, rng) {
					continue
				}
				if sortedAfter(pass, fnBody, rng, target) {
					continue
				}
				pass.ReportRangef(n, "%s is appended to in map iteration order; sort it before it escapes, or iterate over sorted keys", target.Name())
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && emitNames[sel.Sel.Name] && isEmitter(pass, sel.X) {
				pass.ReportRangef(n, "%s called while ranging over a map emits output in random order; collect and sort first", sel.Sel.Name)
			}
		}
		return true
	})
}

// appendTarget returns the variable v for statements of the form
// `v = append(v, …)` (possibly in a parallel assignment at index i),
// or nil.
func appendTarget(pass *analysis.Pass, asg *ast.AssignStmt, i int, rhs ast.Expr) *types.Var {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	if i >= len(asg.Lhs) {
		return nil
	}
	lhs, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[lhs].(*types.Var)
	if !ok {
		// `v := append(w, …)` defines v; only flag when it grows an
		// existing variable (Defs, not Uses) if the appended base is the
		// same variable — covered by the Uses case in practice.
		return nil
	}
	// Require the first append argument to be the same variable, the
	// canonical accumulator shape.
	if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if pass.TypesInfo.Uses[base] == v {
			return v
		}
	}
	return nil
}

// floatSumTarget returns the variable v for statements of the form
// `v += …` or `v -= …` where v has a floating-point type, or nil.
func floatSumTarget(pass *analysis.Pass, asg *ast.AssignStmt) *types.Var {
	if asg.Tok != token.ADD_ASSIGN && asg.Tok != token.SUB_ASSIGN {
		return nil
	}
	id, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if b, ok := v.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return nil
	}
	return v
}

// checkPicks reports pattern 3 in one map range. It walks the body in
// source order, tainting the range key and value and every loop-local
// variable defined or assigned from a tainted expression, and reports
// plain assignments of tainted values to outer variables and returns of
// tainted values. Function literals are skipped: their returns do not
// leave the loop.
func checkPicks(pass *analysis.Pass, rng *ast.RangeStmt, picked map[ast.Node]bool) {
	tainted := make(map[types.Object]bool)
	taint := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				tainted[obj] = true
			}
		}
	}
	uses := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && tainted[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	report := func(n ast.Node, format string, args ...any) {
		if !picked[n] {
			picked[n] = true
			pass.ReportRangef(n, format, args...)
		}
	}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if e != nil {
			taint(e)
		}
	}
	var conds []ast.Expr // conditions of the if statements enclosing the current node
	var stack []ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.IfStmt); ok {
				conds = conds[:len(conds)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			conds = append(conds, n.Cond)
		case *ast.RangeStmt:
			if uses(n.X) {
				if n.Key != nil {
					taint(n.Key)
				}
				if n.Value != nil {
					taint(n.Value)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if len(n.Values) > 0 && uses(valueFor(n.Values, len(n.Names), i)) {
					taint(name)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if uses(res) {
					report(n, "return inside a map range yields the first match in map iteration order; iterate over sorted keys")
					break
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && n.Tok != token.ASSIGN {
				break
			}
			for i, lhs := range n.Lhs {
				rhs := valueFor(n.Rhs, len(n.Lhs), i)
				if !uses(rhs) || appendTarget(pass, n, i, rhs) != nil {
					continue
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
				if !ok {
					continue
				}
				if n.Tok == token.DEFINE || declaredWithin(v, rng) {
					tainted[v] = true
					continue
				}
				if extremum(pass, v, rhs, conds) {
					continue
				}
				report(n, "%s is picked in map iteration order: ties and multiple matches resolve differently between runs; iterate over sorted keys", v.Name())
			}
		}
		stack = append(stack, n)
		return true
	})
}

// valueFor returns the expression assigned to the i-th of n targets: its
// own value, or the single multi-valued expression all targets share.
func valueFor(values []ast.Expr, n, i int) ast.Expr {
	if len(values) == n {
		return values[i]
	}
	return values[0]
}

// extremum reports whether assigning rhs to the numeric variable v is an
// order-independent running minimum or maximum: rhs is min/max (builtin
// or math.Min/math.Max) over v, or an enclosing if condition compares v
// against rhs.
func extremum(pass *analysis.Pass, v *types.Var, rhs ast.Expr, conds []ast.Expr) bool {
	if b, ok := v.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsNumeric == 0 {
		return false
	}
	isV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == v
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		switch types.ExprString(call.Fun) {
		case "min", "max", "math.Min", "math.Max":
			for _, arg := range call.Args {
				if isV(arg) {
					return true
				}
			}
		}
	}
	want := types.ExprString(rhs)
	for _, cond := range conds {
		found := false
		ast.Inspect(cond, func(n ast.Node) bool {
			if be, ok := n.(*ast.BinaryExpr); ok {
				switch be.Op {
				case token.LSS, token.GTR, token.LEQ, token.GEQ:
					found = isV(be.X) && types.ExprString(be.Y) == want || isV(be.Y) && types.ExprString(be.X) == want
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// declaredWithin reports whether v's declaration lies inside the range
// statement (a per-iteration temporary cannot leak order across
// iterations).
func declaredWithin(v *types.Var, rng *ast.RangeStmt) bool {
	return v.Pos() >= rng.Pos() && v.Pos() < rng.End()
}

// sortedAfter reports whether, lexically after the range loop, the
// function sorts v via the sort or slices packages (including inside a
// deferred or nested call argument, e.g. sort.Slice(v, …)).
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, v *types.Var) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkg.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
				sorted = true
				return false
			}
			// sort.Sort(byKey(v)) and friends: conversion wrapping v.
			if conv, ok := ast.Unparen(arg).(*ast.CallExpr); ok && len(conv.Args) == 1 {
				if id, ok := ast.Unparen(conv.Args[0]).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					sorted = true
					return false
				}
			}
		}
		return true
	})
	return sorted
}

// isEmitter reports whether x, the receiver of an emit-named call, is a
// recognized output sink.
func isEmitter(pass *analysis.Pass, x ast.Expr) bool {
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		if pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			return emitterPkgs[pkg.Imported().Path()]
		}
	}
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	if types.Implements(t, writerIface) {
		return true
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			return emitterPkgs[pkg.Path()]
		}
	}
	return false
}

// isMap reports whether t's core type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Map)
	return ok
}
