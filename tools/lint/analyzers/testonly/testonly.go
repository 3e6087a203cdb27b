// Package testonly defines a whole-module analyzer that reports code
// under internal/ which only tests use.
//
// A function, method, type, constant or variable declared in a non-test
// file of an internal/ package must be referenced by some non-test file
// of the module; files under cmd/, examples/ and other internal/
// packages all count. A reference from inside the declaration itself
// does not count (a function that only calls itself is still dead), and
// for a type neither do references from its own methods. Methods that
// implement an interface are never reported: their caller is a dynamic
// dispatch the pass cannot see. The exceptions are the reviewed Allow
// table; an entry whose object is gone, or is now referenced outside
// tests, is itself reported.
//
// The rule needs every package of the module at once, so it is a
// RunModule analyzer: the standalone `delproplint -testonly ./...` from
// the module root runs it, `go vet -vettool` does not.
package testonly

import (
	"go/ast"
	"go/types"
	"strings"

	"delprop/tools/lint/analysis"
)

// Analyzer is the testonly pass over the repository's allowlist.
var Analyzer = New(Allow)

// New returns a testonly analyzer that accepts the entries of allow.
func New(allow []Entry) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "testonly",
		Doc:       "reports internal/ declarations that no non-test file of the module references",
		URL:       "docs/STATIC_ANALYSIS.md#testonly",
		RunModule: func(passes []*analysis.Pass) error { run(passes, allow); return nil },
	}
}

// decl is one reportable declaration.
type decl struct {
	pass *analysis.Pass
	name *ast.Ident
	obj  types.Object
}

func run(passes []*analysis.Pass, allow []Entry) {
	referenced := make(map[string]bool)
	declared := make(map[string]decl)
	var order []string
	for _, pass := range passes {
		internal := isInternal(pass.Pkg.Path())
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				self := make(map[string]bool)
				for _, id := range declNames(d) {
					obj := pass.TypesInfo.Defs[id]
					key := objKey(obj)
					if key == "" {
						continue
					}
					self[key] = true
					if internal && id.Name != "_" && id.Name != "init" {
						declared[key] = decl{pass, id, obj}
						order = append(order, key)
					}
				}
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					if named := recvNamed(pass.TypesInfo.Defs[fd.Name]); named != nil {
						self[objKey(named.Obj())] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if key := objKey(pass.TypesInfo.Uses[id]); key != "" && !self[key] {
							referenced[key] = true
						}
					}
					return true
				})
			}
		}
	}

	byPath := make(map[string]*analysis.Pass, len(passes))
	for _, p := range passes {
		byPath[p.Pkg.Path()] = p
	}
	allowed := make(map[string]bool, len(allow))
	for _, e := range allow {
		allowed[e.Object] = true
		pass := byPath[objectPackage(e.Object)]
		if pass == nil || len(pass.Files) == 0 {
			continue // the package was not loaded: nothing to judge
		}
		d, ok := declared[e.Object]
		switch {
		case !ok:
			pass.Reportf(pass.Files[0].Name.Pos(), "stale allowlist entry %s: no such declaration", e.Object)
		case referenced[e.Object]:
			d.pass.Reportf(d.name.Pos(), "stale allowlist entry %s: non-test code references it now", e.Object)
		}
	}

	ifaces := interfaces(passes)
	for _, key := range order {
		d := declared[key]
		if referenced[key] || allowed[key] || implements(d.obj, ifaces) {
			continue
		}
		d.pass.Reportf(d.name.Pos(), "no non-test file references %s: delete it, move it into a _test.go file, or allowlist it with a reason", displayName(key))
	}
}

// declNames lists the identifiers a top-level declaration defines.
func declNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// objKey names a package-level object or a method as
// "import/path.Name" or "import/path.Type.Method"; anything else (locals,
// fields, universe objects) has no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if named := recvNamed(fn); named != nil {
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return "" // an interface method
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the named receiver type of a method, or nil.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// interfaces indexes by method name every interface the module can
// dispatch through: error, the named interfaces of each loaded package
// and of everything it imports, and each interface type written in the
// module's code (type assertions, parameters, local types).
func interfaces(passes []*analysis.Pass) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pass := range passes {
		walk(pass.Pkg)
		for _, tv := range pass.TypesInfo.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// implements reports whether obj is a method through which an interface
// can reach its type: one of the indexed interfaces, or the errors
// package's unnamed Unwrap/Is/As protocol on a type that is an error.
func implements(obj types.Object, ifaces map[string][]*types.Interface) bool {
	named := recvNamed(obj)
	if named == nil {
		return false
	}
	// The pointer's method set holds the value methods too.
	ptr := types.NewPointer(named)
	switch obj.Name() {
	case "Unwrap", "Is", "As":
		if it := types.Universe.Lookup("error").Type().Underlying().(*types.Interface); types.Implements(ptr, it) {
			return true
		}
	}
	for _, it := range ifaces[obj.Name()] {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// isInternal reports whether an import path has an internal element.
func isInternal(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

// objectPackage returns the import path of "import/path.Name[.Method]".
func objectPackage(key string) string {
	slash := strings.LastIndexByte(key, '/')
	if dot := strings.IndexByte(key[slash+1:], '.'); dot >= 0 {
		return key[:slash+1+dot]
	}
	return key
}

// displayName shortens a key to "pkg.Name[.Method]".
func displayName(key string) string {
	return key[strings.LastIndexByte(key, '/')+1:]
}
