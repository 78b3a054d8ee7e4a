package analysis

import (
	"go/ast"
	"go/types"
)

// Origin tracking answers "where did this value come from". For one
// function body it records every expression assigned to each local object
// (:=, =, var decls), so an analyzer can chase a value through
// intermediate locals back to the call that produced it — errwrap uses it
// to tell an error born in a classified package from a strconv parse
// error. Tracking is intra-procedural and flow-insensitive (a source
// anywhere in the body counts), which over-approximates: a value MAY
// derive from a source. errwrap therefore only flags on derivation where
// the over-approximation cannot hurt (%w is correct for every origin).
type Origins struct {
	pass    *Pass
	sources map[types.Object][]ast.Expr
}

// collectOrigins builds the origin map for one function body. Nested
// function literals are included: a closure assigning an outer local is a
// source for it.
func collectOrigins(pass *Pass, body *ast.BlockStmt) *Origins {
	o := &Origins{pass: pass, sources: map[types.Object][]ast.Expr{}}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil {
			o.sources[obj] = append(o.sources[obj], rhs)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
				// a, b := f(): every LHS derives from the one call.
				for _, lhs := range s.Lhs {
					record(lhs, s.Rhs[0])
				}
				return true
			}
			for i, rhs := range s.Rhs {
				if i < len(s.Lhs) {
					record(s.Lhs[i], rhs)
				}
			}
		case *ast.GenDecl:
			for _, spec := range s.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					for _, name := range vs.Names {
						record(name, vs.Values[0])
					}
					continue
				}
				for i, v := range vs.Values {
					if i < len(vs.Names) {
						record(vs.Names[i], v)
					}
				}
			}
		}
		return true
	})
	return o
}

// DerivesFromCall reports whether e's value can derive — through local
// assignments, up to a small depth — from a call whose callee satisfies
// pred. Interface method calls resolve to the interface's declared
// method, so pred sees the package that owns the contract.
func (o *Origins) DerivesFromCall(e ast.Expr, pred func(fn *types.Func) bool) bool {
	return o.derives(e, pred, map[types.Object]bool{}, 4)
}

func (o *Origins) derives(e ast.Expr, pred func(fn *types.Func) bool, visiting map[types.Object]bool, depth int) bool {
	if depth == 0 || e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(o.pass.Info, x); fn != nil && pred(fn) {
				found = true
				return false
			}
		case *ast.Ident:
			obj := o.pass.Info.Uses[x]
			if obj == nil || visiting[obj] {
				return true
			}
			visiting[obj] = true
			for _, src := range o.sources[obj] {
				if o.derives(src, pred, visiting, depth-1) {
					found = true
					break
				}
			}
			delete(visiting, obj)
			if found {
				return false
			}
		}
		return true
	})
	return found
}

// errorIface is the predeclared error interface, resolved once.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface (the
// static-type test errwrap keys on).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorIface)
}

// unitImportsTransitive reports whether the unit's package is path, or
// reaches it through intra-module imports (stdlib subtrees are never
// descended — they cannot import back into the module).
func unitImportsTransitive(pkg *types.Package, path string) bool {
	if pkg.Path() == path || pkg.Path() == path+"_test" {
		return true
	}
	seen := map[string]bool{}
	var walk func(p *types.Package) bool
	walk = func(p *types.Package) bool {
		if p.Path() == path {
			return true
		}
		if seen[p.Path()] {
			return false
		}
		seen[p.Path()] = true
		for _, imp := range p.Imports() {
			if isModulePath(imp.Path()) && walk(imp) {
				return true
			}
		}
		return false
	}
	return walk(pkg)
}

// isModulePath reports whether an import path belongs to this module.
func isModulePath(path string) bool {
	return path == modulePathPrefix || len(path) > len(modulePathPrefix) &&
		path[:len(modulePathPrefix)+1] == modulePathPrefix+"/"
}
