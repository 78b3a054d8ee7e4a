package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc keeps the byte-moving inner loops allocation-free. Functions
// marked //qusim:hot in their doc comment (the gate kernels, permutation
// gathers, and f32 compression loops that touch every amplitude) promise
// steady-state zero allocations — at 2^45 amplitudes even one small
// allocation per loop iteration turns into garbage-collector pressure
// that dwarfs the compute. Inside any loop of a marked function the
// analyzer flags the constructs that allocate or box:
//
//   - make / new / append and composite literals;
//   - function literals (closure allocation per iteration);
//   - conversions to string or slice types (copying conversions);
//   - passing or assigning a concrete value where an interface is
//     expected (boxing; fmt-style calls are the classic offender).
//
// Calls out of a hot loop are followed one level deep: a call to a
// function declared in the same unit whose body allocates (make / new /
// append, composite or function literal) is reported at the call site —
// the allocation runs once per iteration no matter whose body it sits
// in, and hiding it behind a helper used to hide it from the analyzer.
//
// panic calls are exempt: a panicking iteration is not steady state.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "loops in //qusim:hot functions must not allocate or box: no make/new/append, composite or " +
		"function literals, copying conversions, or concrete-to-interface boxing",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	// Same-unit declaration index for the single-level inlining step.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !docHasMarker(fd.Doc, "//qusim:hot") {
				continue
			}
			checkHotFunc(pass, fd, decls)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) {
	// Collect the loop-body regions; everything inside one is hot. Unlike
	// the other analyzers this descends into function literals: the hot
	// kernels hand their sweep loops to the worker pool as par.For closures,
	// and those loops are exactly the ones the marker promises are clean.
	var loops []*ast.BlockStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, s.Body)
		case *ast.RangeStmt:
			loops = append(loops, s.Body)
		}
		return true
	})
	if len(loops) == 0 {
		return
	}
	inLoop := func(p ast.Node) bool {
		for _, l := range loops {
			if p.Pos() >= l.Pos() && p.Pos() < l.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if inLoop(x) {
				pass.Reportf(x.Pos(), "composite literal allocates inside a //qusim:hot loop (%s): hoist it out of the loop", fd.Name.Name)
			}
		case *ast.FuncLit:
			// Flag only literals born inside a loop (one closure per
			// iteration); a literal outside any loop — the par.For worker
			// itself — is a one-time cost, but its body stays hot.
			if inLoop(x) {
				pass.Reportf(x.Pos(), "function literal allocates a closure inside a //qusim:hot loop (%s): hoist it out of the loop", fd.Name.Name)
			}
		case *ast.CallExpr:
			if calleeBuiltin(pass.Info, x) == "panic" {
				return false // a panicking iteration is not steady state; its message may allocate
			}
			if !inLoop(x) {
				return true
			}
			checkHotCall(pass, fd.Name.Name, x, decls)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fname string, call *ast.CallExpr, decls map[types.Object]*ast.FuncDecl) {
	switch calleeBuiltin(pass.Info, call) {
	case "make", "new", "append":
		pass.Reportf(call.Pos(), "%s inside a //qusim:hot loop (%s) allocates per iteration: hoist the buffer out of the loop",
			calleeBuiltin(pass.Info, call), fname)
		return
	case "panic", "len", "cap", "copy", "clear", "min", "max", "real", "imag", "complex", "delete", "print", "println":
		return
	}
	if isConversion(pass.Info, call) {
		tv := pass.Info.Types[call.Fun]
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			pass.Reportf(call.Pos(), "conversion to %s copies inside a //qusim:hot loop (%s)", tv.Type.String(), fname)
		case *types.Basic:
			if tv.Type.Underlying().(*types.Basic).Kind() == types.String {
				if argT, ok := pass.Info.Types[call.Args[0]]; ok {
					if _, isBasic := argT.Type.Underlying().(*types.Basic); !isBasic {
						pass.Reportf(call.Pos(), "conversion to string copies inside a //qusim:hot loop (%s)", fname)
					}
				}
			}
		case *types.Interface: // also every type parameter's
			if boxes(tv.Type) {
				pass.Reportf(call.Pos(), "conversion to interface %s boxes inside a //qusim:hot loop (%s)", tv.Type.String(), fname)
			}
		}
		return
	}
	// Boxing through a call: concrete argument, interface parameter.
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				paramT = sl.Elem()
			}
		case i < sig.Params().Len():
			paramT = sig.Params().At(i).Type()
		}
		if paramT == nil {
			continue
		}
		if !boxes(paramT) {
			continue
		}
		argTV, ok := pass.Info.Types[arg]
		if !ok || argTV.Type == nil {
			continue
		}
		if _, argIface := argTV.Type.Underlying().(*types.Interface); argIface {
			continue
		}
		if argTV.IsNil() {
			continue
		}
		pass.Reportf(arg.Pos(),
			"passing %s to interface parameter of %s boxes inside a //qusim:hot loop (%s)",
			argTV.Type.String(), fn.Name(), fname)
	}

	// Single-level inlining: a same-unit callee that allocates anywhere in
	// its body allocates once per iteration of this loop.
	if callee, ok := decls[types.Object(fn)]; ok {
		if node, what := firstCalleeAlloc(pass, callee.Body); node != nil {
			pass.Reportf(call.Pos(),
				"call to %s allocates per iteration inside a //qusim:hot loop (%s): %s at line %d — hoist the allocation out of the per-iteration path",
				fn.Name(), fname, what, pass.Fset.Position(node.Pos()).Line)
		}
	}
}

// boxes reports whether a concrete value stored as a t is boxed: t is an
// interface, or a type parameter an interface type can instantiate — one
// constrained by methods alone, or whose type set any's lies in. One whose
// type set is concrete types (complex64 | complex128) boxes nothing.
func boxes(t types.Type) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		c := tp.Constraint().Underlying().(*types.Interface)
		return c.IsMethodSet() || types.Satisfies(types.NewInterfaceType(nil, nil), c)
	}
	return types.IsInterface(t)
}

// firstCalleeAlloc finds the source-first allocating construct in a
// callee body: make/new/append, a composite literal, or a function
// literal. Conversions and boxing are left to the callee's own marker —
// one inlining level keeps the signal-to-noise of the direct checks.
// panic subtrees are exempt, as in the direct case.
func firstCalleeAlloc(pass *Pass, body *ast.BlockStmt) (ast.Node, string) {
	var node ast.Node
	var what string
	ast.Inspect(body, func(n ast.Node) bool {
		if node != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.CompositeLit:
			node, what = x, "composite literal"
		case *ast.FuncLit:
			node, what = x, "function literal"
		case *ast.CallExpr:
			switch b := calleeBuiltin(pass.Info, x); b {
			case "panic":
				return false
			case "make", "new", "append":
				node, what = x, b
			}
		}
		return node == nil
	})
	return node, what
}
