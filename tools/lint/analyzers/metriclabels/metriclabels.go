// Package metriclabels enforces bounded metric label cardinality.
//
// Prometheus-style metrics multiply storage by the number of distinct
// label values, so PR 6 established the invariant that every
// telemetry.Labels value comes from a bounded set: string constants,
// registry solver names, the admission policy's known-tenant mapping.
// A raw request string — a URL path, a header, a body field — hands
// cardinality control to the client and is how a scraper gets OOM-killed.
//
// The analyzer runs a deny-list taint analysis per package. Tainted
// sources are:
//
//   - data reachable from *http.Request, *url.URL, url.Values or
//     http.Header (r.Method, r.URL.Path, r.Header.Get(...), query maps);
//   - fields of json-tagged structs declared in the package (decoded
//     request DTOs).
//
// Taint propagates through local assignments, string operations and
// calls (an argument taints the result), and interprocedurally through
// same-package function parameters: if any call site passes a tainted
// argument, the parameter is tainted in that function's body. A
// same-package function whose returns stay clean even with tainted
// parameters — e.g. a switch over known routes with a constant default —
// is a sanitizer: its result is bounded by construction.
//
// Three cuts keep the deny list honest about what "bounded" means:
//
//   - boolean-typed expressions are never tainted (cardinality 2);
//   - context.Context-typed expressions are never tainted (a context
//     reached from a request is plumbing, not a label string);
//   - calls into the bounded vocabulary packages (internal/core and
//     internal/admission) return clean values even on tainted inputs:
//     core.NewSolver validates against the registry and Solver.Name
//     reports the registered name, admission's Resolve/Admit collapse
//     unknown tenants into the policy's known-tenant mapping.
//
// A diagnostic fires when a tainted expression is used as a value in a
// telemetry.Labels composite literal or assigned into a Labels map.
// Test files are exempt: test label values do not reach a production
// scrape.
package metriclabels

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"delprop/tools/lint/analysis"
	"delprop/tools/lint/internal/typesutil"
)

// Analyzer implements the metriclabels check.
var Analyzer = &analysis.Analyzer{
	Name: "metriclabels",
	Doc:  "telemetry metric label values must come from bounded sets, never raw request strings",
	URL:  "docs/STATIC_ANALYSIS.md#metriclabels",
	Run:  run,
}

// boundedPackages lists import-path suffixes whose exported API returns
// bounded label vocabularies (registry names, known tenants, rule
// names); calls into them launder taint by construction.
const boundedPackages = "delprop/internal/core,delprop/internal/admission"

// boundedCallee reports whether fn is declared in one of the bounded
// vocabulary packages.
func boundedCallee(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	for _, suffix := range strings.Split(boundedPackages, ",") {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	st := &state{
		pass:           pass,
		taintedParams:  make(map[*types.Var]bool),
		returnsTainted: make(map[*types.Func]bool),
		decls:          make(map[*types.Func]*ast.FuncDecl),
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					st.decls[fn] = fd
				}
			}
		}
	}

	// Fixpoint: propagate taint through same-package parameters and
	// result values until stable.
	for round := 0; round < 10; round++ {
		if !st.propagate() {
			break
		}
	}

	// Report tainted label values.
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			locals := st.localTaint(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if !isLabelsType(pass.TypesInfo.TypeOf(n)) {
						return true
					}
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if st.tainted(kv.Value, locals) {
							pass.ReportRangef(kv.Value, "metric label value derives from request data; label values must come from a bounded set (constants, registry names, known tenants)")
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						ie, ok := lhs.(*ast.IndexExpr)
						if !ok || !isLabelsType(pass.TypesInfo.TypeOf(ie.X)) {
							continue
						}
						if i < len(n.Rhs) && st.tainted(n.Rhs[i], locals) {
							pass.ReportRangef(n.Rhs[i], "metric label value derives from request data; label values must come from a bounded set (constants, registry names, known tenants)")
						}
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

type state struct {
	pass           *analysis.Pass
	decls          map[*types.Func]*ast.FuncDecl
	taintedParams  map[*types.Var]bool
	returnsTainted map[*types.Func]bool
}

// propagate runs one analysis round over every function, marking
// parameters tainted by call sites and functions whose returns are
// tainted. It reports whether anything changed.
func (st *state) propagate() bool {
	changed := false
	for fn, fd := range st.decls {
		locals := st.localTaint(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := typesutil.Callee(st.pass.TypesInfo, n)
				if callee == nil {
					return true
				}
				cd := st.decls[callee]
				if cd == nil {
					return true
				}
				params := paramVars(cd, st.pass)
				for i, arg := range n.Args {
					if i >= len(params) {
						break
					}
					if st.tainted(arg, locals) && !st.taintedParams[params[i]] {
						st.taintedParams[params[i]] = true
						changed = true
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if st.tainted(res, locals) && !st.returnsTainted[fn] {
						st.returnsTainted[fn] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return changed
}

// paramVars lists a declaration's parameter objects in order.
func paramVars(fd *ast.FuncDecl, pass *analysis.Pass) []*types.Var {
	var out []*types.Var
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// localTaint computes the function's tainted locals with a forward pass
// (run twice so a use-before-later-def ordering still converges on the
// simple flows the server code uses).
func (st *state) localTaint(fd *ast.FuncDecl) map[types.Object]bool {
	locals := make(map[types.Object]bool)
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := st.pass.TypesInfo.ObjectOf(id)
					if obj == nil {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					if rhs != nil && st.tainted(rhs, locals) {
						locals[obj] = true
					}
				}
			case *ast.RangeStmt:
				if st.tainted(n.X, locals) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							if obj := st.pass.TypesInfo.ObjectOf(id); obj != nil {
								locals[obj] = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if name.Name == "_" || i >= len(n.Values) {
						continue
					}
					if obj := st.pass.TypesInfo.ObjectOf(name); obj != nil && st.tainted(n.Values[i], locals) {
						locals[obj] = true
					}
				}
			}
			return true
		})
	}
	return locals
}

// tainted reports whether e may carry request-derived data.
func (st *state) tainted(e ast.Expr, locals map[types.Object]bool) bool {
	if t := st.pass.TypesInfo.TypeOf(e); t != nil {
		// Booleans carry two values; a label derived from one is bounded
		// no matter where the bool came from.
		if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsBoolean != 0 {
			return false
		}
		// A context reached from a request is cancellation plumbing, not
		// a label string; cutting here keeps ctx-threading code clean.
		if typesutil.IsContext(t) {
			return false
		}
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit, *ast.FuncLit, *ast.CompositeLit:
		return false
	case *ast.Ident:
		obj := st.pass.TypesInfo.ObjectOf(e)
		if obj == nil {
			return false
		}
		if locals[obj] {
			return true
		}
		if v, ok := obj.(*types.Var); ok && st.taintedParams[v] {
			return true
		}
		return requestRooted(obj.Type())
	case *ast.SelectorExpr:
		if st.tainted(e.X, locals) {
			return true
		}
		return st.jsonTaggedField(e)
	case *ast.CallExpr:
		// Conversions keep their operand's taint.
		if _, ok := st.conversion(e); ok {
			for _, arg := range e.Args {
				if st.tainted(arg, locals) {
					return true
				}
			}
			return false
		}
		if callee := typesutil.Callee(st.pass.TypesInfo, e); callee != nil {
			// Bounded vocabulary packages launder taint: their results
			// are registry names, known tenants and rule names even when
			// a request string goes in.
			if boundedCallee(callee) {
				return false
			}
			if _, local := st.decls[callee]; local {
				// Same-package callee: tainted only if its returns are —
				// a clean-returning callee is a sanitizer.
				if st.returnsTainted[callee] {
					return true
				}
				// Method calls on tainted receivers stay tainted even if
				// analysis of the body found nothing (getters).
				if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && st.tainted(sel.X, locals) {
					return true
				}
				return false
			}
		}
		// Unknown callee: any tainted input taints the result
		// (strings.TrimPrefix(r.URL.Path, "/") is still the path).
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && st.tainted(sel.X, locals) {
			return true
		}
		for _, arg := range e.Args {
			if st.tainted(arg, locals) {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return st.tainted(e.X, locals) || st.tainted(e.Y, locals)
	case *ast.IndexExpr:
		return st.tainted(e.X, locals) || st.tainted(e.Index, locals)
	case *ast.UnaryExpr:
		return st.tainted(e.X, locals)
	case *ast.StarExpr:
		return st.tainted(e.X, locals)
	case *ast.TypeAssertExpr:
		return st.tainted(e.X, locals)
	case *ast.SliceExpr:
		return st.tainted(e.X, locals)
	}
	return false
}

// conversion reports whether the call is a type conversion.
func (st *state) conversion(call *ast.CallExpr) (*types.TypeName, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		tn, ok := st.pass.TypesInfo.ObjectOf(fun).(*types.TypeName)
		return tn, ok
	case *ast.SelectorExpr:
		tn, ok := st.pass.TypesInfo.ObjectOf(fun.Sel).(*types.TypeName)
		return tn, ok
	}
	return nil, false
}

// jsonTaggedField reports whether sel selects a json-tagged field of a
// struct declared in the package under analysis (a decoded request DTO).
func (st *state) jsonTaggedField(sel *ast.SelectorExpr) bool {
	s := st.pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || field.Pkg() == nil || st.pass.Pkg == nil || field.Pkg() != st.pass.Pkg {
		return false
	}
	base := s.Recv()
	if ptr, ok := types.Unalias(base).(*types.Pointer); ok {
		base = ptr.Elem()
	}
	stru, ok := base.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < stru.NumFields(); i++ {
		if stru.Field(i) == field {
			tag := reflect.StructTag(stru.Tag(i)).Get("json")
			// Only string-carrying fields can smuggle unbounded
			// cardinality; a decoded int or bool is fine.
			return tag != "" && tag != "-" && carriesString(field.Type())
		}
	}
	return false
}

// carriesString reports whether t is a string or a container of strings
// (the shapes a decoded request DTO can leak unbounded values through).
func carriesString(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		return carriesString(u.Elem())
	case *types.Array:
		return carriesString(u.Elem())
	case *types.Map:
		return carriesString(u.Key()) || carriesString(u.Elem())
	case *types.Pointer:
		return carriesString(u.Elem())
	}
	return false
}

// requestRooted reports whether t is a request-data root type.
func requestRooted(t types.Type) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "net/http":
		return obj.Name() == "Request" || obj.Name() == "Header"
	case "net/url":
		return obj.Name() == "URL" || obj.Name() == "Values"
	}
	return false
}

// isLabelsType reports whether t is the telemetry.Labels map type (the
// named type Labels in a package whose import path ends in
// internal/telemetry).
func isLabelsType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Labels" && obj.Pkg() != nil &&
		(obj.Pkg().Path() == "internal/telemetry" || strings.HasSuffix(obj.Pkg().Path(), "/internal/telemetry"))
}
