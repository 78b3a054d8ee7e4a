package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Import paths of the packages whose contracts the analyzers encode.
const (
	modulePathPrefix = "qusim"

	ckptPath      = "qusim/internal/ckpt"
	telemetryPath = "qusim/internal/telemetry"
	parPath       = "qusim/internal/par"
	fsioPath      = "qusim/internal/fsio"
	oocvecPath    = "qusim/internal/oocvec"
)

// calleeFunc resolves the function or method a call expression invokes,
// or nil for builtins, conversions, and indirect calls through function
// values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// calleeBuiltin returns the name of the builtin a call invokes ("" when it
// is not a builtin call).
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isConversion reports whether a call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// fnIs reports whether fn is the package-level function pkgPath.name.
func fnIs(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && recvNamed(fn) == ""
}

// recvNamed returns the bare receiver type name of a method ("" for plain
// functions).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// namedFrom unwraps pointers and reports the named type's package path and
// name, if t (or its pointee) is a named type from a package.
func namedFrom(t types.Type) (pkgPath, name string, ok bool) {
	if t == nil {
		return "", "", false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil {
		return "", "", false
	}
	return n.Obj().Pkg().Path(), n.Obj().Name(), true
}

// docHasMarker reports whether a declaration's doc comment contains the
// given standalone marker line (e.g. //qusim:hot, //qusim:commit-helper).
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// unitImports reports whether the unit's package imports (directly) the
// given path, or is that package itself.
func unitImports(pkg *types.Package, path string) bool {
	if pkg.Path() == path || pkg.Path() == path+"_test" {
		return true
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file a node sits in is a _test.go file.
func (p *Pass) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// eachFuncBody invokes fn for every function declaration and function
// literal in the file, with the declaration's doc comment (nil for
// literals) — the granularity the per-function analyzers work at.
// Function literals nested inside another body are visited on their own;
// walkBody (below) does not descend into them.
func eachFuncBody(f *ast.File, fn func(doc *ast.CommentGroup, name string, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Doc, d.Name.Name, d.Body)
			}
		case *ast.FuncLit:
			fn(nil, "func literal", d.Body)
		}
		return true
	})
}

// walkBody walks a function body without descending into nested function
// literals (they get their own eachFuncBody visit).
func walkBody(body *ast.BlockStmt, visit func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			visit(n)
			return false
		}
		return visit(n)
	})
}
