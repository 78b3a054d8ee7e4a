package analysis

// ErrWrap enforces DESIGN.md §10's error-chain invariant at the storage
// seam: errors that originate in (or pass through) qusim/internal/fsio,
// qusim/internal/ckpt, or qusim/internal/oocvec carry classification —
// fsio.IsNoSpace and fsio.IsTransient walk the wrap chain with errors.As /
// errors.Is to decide whether the out-of-core scheduler retries, spills to
// another volume, or aborts the run. Formatting such an error with
// fmt.Errorf's %v (or %s, %q) flattens it to text and silently breaks that
// classification; creating a brand-new error inside an `if err != nil`
// guard discards the chain entirely.
//
// The analyzer is origin-aware, not syntactic: outside the seam packages
// it only fires when the formatted error provably derives (through local
// assignments, see dataflow.go) from a call into this module, so a
// strconv.Atoi error rendered with %v in an importing package stays
// legal. Inside the seam packages every error is assumed classified.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "Errors crossing the fsio/ckpt/oocvec boundary must keep their wrap " +
		"chain: fmt.Errorf with %v/%s instead of %w, or a fresh errors.New " +
		"inside an `if err != nil` guard, breaks IsNoSpace/IsTransient " +
		"classification and turns a retryable fault into a hard abort",
	Run: runErrWrap,
}

// seamPaths are the packages whose errors carry classification.
var seamPaths = []string{fsioPath, ckptPath, oocvecPath}

func runErrWrap(pass *Pass) {
	inSeam := false
	touchesSeam := false
	for _, p := range seamPaths {
		if pass.Pkg.Path() == p || pass.Pkg.Path() == p+"_test" {
			inSeam = true
		}
		if unitImportsTransitive(pass.Pkg, p) {
			touchesSeam = true
		}
	}
	if !touchesSeam {
		return
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ew := &errWrapCheck{pass: pass, inSeam: inSeam, origins: collectOrigins(pass, fd.Body)}
			ew.checkBody(fd.Body)
		}
	}
}

type errWrapCheck struct {
	pass    *Pass
	inSeam  bool
	origins *Origins
}

// classified reports whether e's error value is (assumed) classified: any
// error inside a seam package, or one derived from a call into this
// module elsewhere.
func (ew *errWrapCheck) classified(e ast.Expr) bool {
	if ew.inSeam {
		return true
	}
	return ew.origins.DerivesFromCall(e, func(fn *types.Func) bool {
		return fn.Pkg() != nil && isModulePath(fn.Pkg().Path())
	})
}

func (ew *errWrapCheck) checkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			ew.checkErrorf(x)
		case *ast.IfStmt:
			ew.checkGuard(x)
		}
		return true
	})
}

// checkErrorf flags error-typed operands of fmt.Errorf formatted with a
// verb other than %w.
func (ew *errWrapCheck) checkErrorf(call *ast.CallExpr) {
	if !fnIs(calleeFunc(ew.pass.Info, call), "fmt", "Errorf") ||
		call.Ellipsis.IsValid() || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	verbs, ok := parseFormatVerbs(lit.Value)
	if !ok {
		return
	}
	for _, v := range verbs {
		if v.verb == 'w' || v.arg >= len(call.Args)-1 {
			continue
		}
		arg := call.Args[1+v.arg]
		tv, ok := ew.pass.Info.Types[arg]
		if !ok || !isErrorType(tv.Type) || !ew.classified(arg) {
			continue
		}
		ew.pass.Reportf(arg.Pos(),
			"error formatted with %%%c loses its wrap chain across the fsio/ckpt/oocvec boundary; replace %%%c with %%w so IsNoSpace/IsTransient classification survives",
			v.verb, v.verb)
	}
}

// checkGuard flags `if err != nil` bodies that return a freshly minted
// error — errors.New, or a fmt.Errorf that never mentions err — in place
// of the classified one they guard.
func (ew *errWrapCheck) checkGuard(ifs *ast.IfStmt) {
	cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.NEQ {
		return
	}
	errSide := ast.Unparen(cond.X)
	if isNilIdent(ew.pass.Info, errSide) {
		errSide = ast.Unparen(cond.Y)
	} else if !isNilIdent(ew.pass.Info, cond.Y) {
		return
	}
	errID, ok := errSide.(*ast.Ident)
	if !ok {
		return
	}
	errObj := ew.pass.Info.Uses[errID]
	tv, ok := ew.pass.Info.Types[errSide]
	if errObj == nil || !ok || !isErrorType(tv.Type) || !ew.classified(errSide) {
		return
	}
	// Scan the guard body (not nested closures — their returns leave a
	// different function) for returns that discard errObj.
	walkBody(ifs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			call, ok := ast.Unparen(res).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := calleeFunc(ew.pass.Info, call)
			fresh := fnIs(fn, "errors", "New")
			if fnIs(fn, "fmt", "Errorf") && !mentionsObject(ew.pass.Info, call, errObj) {
				fresh = true
			}
			if fresh {
				ew.pass.Reportf(call.Pos(),
					"returns a fresh error inside `if %s != nil`, discarding the classified chain; wrap %s with fmt.Errorf(...: %%w, ...) instead",
					errID.Name, errID.Name)
			}
		}
		return true
	})
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// mentionsObject reports whether the expression references obj anywhere.
func mentionsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// fmtVerb is one formatting verb of a format-string literal.
type fmtVerb struct {
	arg  int // 0-based operand index the verb consumes
	verb byte
}

// parseFormatVerbs scans the raw source text of a string literal for
// fmt verbs and maps each to the operand it consumes. Star widths and
// precisions consume operands of their own. Explicit argument indexes
// (%[1]v) are not modeled: ok is false and the caller skips the call.
func parseFormatVerbs(raw string) (verbs []fmtVerb, ok bool) {
	arg := 0
	for i := 0; i < len(raw); i++ {
		if raw[i] != '%' {
			continue
		}
		i++
		if i < len(raw) && raw[i] == '%' {
			continue
		}
		for i < len(raw) && strings.IndexByte("+-# 0", raw[i]) >= 0 {
			i++
		}
		if i < len(raw) && raw[i] == '*' {
			arg++
			i++
		} else {
			for i < len(raw) && raw[i] >= '0' && raw[i] <= '9' {
				i++
			}
		}
		if i < len(raw) && raw[i] == '.' {
			i++
			if i < len(raw) && raw[i] == '*' {
				arg++
				i++
			} else {
				for i < len(raw) && raw[i] >= '0' && raw[i] <= '9' {
					i++
				}
			}
		}
		if i >= len(raw) {
			break
		}
		if raw[i] == '[' {
			return nil, false
		}
		verbs = append(verbs, fmtVerb{arg: arg, verb: raw[i]})
		arg++
	}
	return verbs, true
}
