package analysis

import (
	"go/ast"
	"go/types"
)

// GlobalCleanup keeps tests hermetic with respect to process-global
// simulator state. The worker pool outlives every run, so its size and its
// telemetry sink are the process's (a run's file system and telemetry ride
// in its own options), which means a test that sets one and forgets to
// restore it silently reconfigures every later test in the binary. The
// analyzer flags any call to one of those setters from a _test.go function
// that does not also register a t.Cleanup/b.Cleanup (or defer a restoring
// call to the same setter) in the same function.
var GlobalCleanup = &Analyzer{
	Name: "globalcleanup",
	Doc:  "tests mutating process globals (par.SetWorkers, par.SetTelemetry) must restore them via t.Cleanup or defer",
	Run:  runGlobalCleanup,
}

// globalSetters maps the guarded process-global setters, keyed by package
// path then function name.
var globalSetters = map[string]map[string]bool{
	parPath: {"SetWorkers": true, "SetTelemetry": true},
}

func isGlobalSetter(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || recvNamed(fn) != "" {
		return false
	}
	return globalSetters[fn.Pkg().Path()][fn.Name()]
}

func runGlobalCleanup(pass *Pass) {
	for _, f := range pass.Files {
		if !pass.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSetterCleanup(pass, fd)
		}
	}
}

// checkSetterCleanup inspects one test-file function: every global-setter
// call must be matched by a Cleanup registration or a deferred restoring
// call to the same setter somewhere in the same declaration (closures
// included — the canonical pattern is t.Cleanup(func() { SetX(old) })).
func checkSetterCleanup(pass *Pass, fd *ast.FuncDecl) {
	type setterCall struct {
		call *ast.CallExpr
		fn   *types.Func
	}
	var calls []setterCall
	restored := map[*types.Func]bool{}
	hasCleanup := false

	// Unlike the per-body analyzers, walk the whole declaration including
	// nested closures: the restoring call lives inside the Cleanup closure.
	var walk func(n ast.Node, deferred, cleanup bool)
	walk = func(n ast.Node, deferred, cleanup bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.DeferStmt:
				walk(x.Call, true, cleanup)
				return false
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, x)
				if isTestingCleanup(pass.Info, x) {
					hasCleanup = true
					for _, arg := range x.Args {
						walk(arg, deferred, true)
					}
					return false
				}
				if isGlobalSetter(fn) {
					if deferred || cleanup {
						restored[fn] = true
					} else {
						calls = append(calls, setterCall{x, fn})
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, false, false)

	for _, c := range calls {
		if restored[c.fn] {
			continue
		}
		if hasCleanup {
			// A Cleanup exists but never calls this setter back: still a
			// leak — the global stays mutated for the rest of the binary.
			pass.Reportf(c.call.Pos(),
				"%s.%s mutates process-global state but no t.Cleanup/defer in %s restores it: later tests in the binary inherit the mutated value",
				c.fn.Pkg().Name(), c.fn.Name(), fd.Name.Name)
			continue
		}
		pass.Reportf(c.call.Pos(),
			"%s.%s mutates process-global state without a t.Cleanup/defer restore in %s: register `old := %s.%s(...); t.Cleanup(func() { %s.%s(old) })`",
			c.fn.Pkg().Name(), c.fn.Name(), fd.Name.Name,
			c.fn.Pkg().Name(), c.fn.Name(), c.fn.Pkg().Name(), c.fn.Name())
	}
}

// isTestingCleanup reports whether call is t.Cleanup/b.Cleanup/f.Cleanup
// on a *testing.T/B/F (or testing.TB) receiver.
func isTestingCleanup(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Cleanup" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "testing"
}
