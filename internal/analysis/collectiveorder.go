package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CollectiveOrder enforces the paper's Sec. 3.4–3.5 communication
// discipline: every rank must execute the same ordered sequence of
// collectives. It flags two statically detectable ways the repo has
// actually broken that invariant:
//
//  1. a collective call (Barrier, GroupExchange, AllreduceSum,
//     AllgatherFloat64, GroupAlltoall) nested under a rank-dependent condition — ranks
//     that skip the branch never enter the collective and the others block
//     forever (the deadlock class PR 2 fixed by hand in World.Run's error
//     paths);
//  2. a conditional `return nil` inside a World.Run closure with
//     collectives after it — an error return poisons the world and
//     unblocks everyone, but a success return does not, so the early-
//     returning rank silently deserts the remaining collectives.
//
// Symmetric rank-branched patterns (both arms of an if issue the same
// collective sequence) are legitimate; suppress them with
// //qlint:ignore collectiveorder <symmetry argument> on the function.
var CollectiveOrder = &Analyzer{
	Name: "collectiveorder",
	Doc: "collectives reached under rank-dependent conditions or after conditional success returns " +
		"desynchronize the rank-uniform collective order and deadlock the world",
	Run: runCollectiveOrder,
}

// collectiveMethods are the *mpi.Comm entry points that participate in the
// rank-uniform global order.
var collectiveMethods = map[string]bool{
	"GroupExchange":    true,
	"GroupAlltoall":    true,
	"AllreduceSum":     true,
	"AllgatherFloat64": true,
	"Barrier":          true,
}

func runCollectiveOrder(pass *Pass) {
	for _, f := range pass.Files {
		// The mpi package implements the discipline; its internals are
		// legitimately rank-asymmetric. Its tests are consumers like any
		// other and stay covered.
		if pass.Pkg.Path() == mpiPath && !pass.isTestFile(f) {
			continue
		}
		eachFuncBody(f, func(_ *ast.CommentGroup, name string, body *ast.BlockStmt) {
			checkRankConditioned(pass, body)
		})
		checkRunClosures(pass, f)
	}
}

// collectiveCallee returns the collective's name when call invokes one of
// the *mpi.Comm collective methods, else "".
func collectiveCallee(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || !collectiveMethods[fn.Name()] {
		return ""
	}
	if methodIs(fn, mpiPath, "Comm", fn.Name()) {
		return fn.Name()
	}
	return ""
}

// rankTaint computes the set of objects in a function body whose value is
// derived from the rank id: direct results of (*mpi.Comm).Rank() (or the
// Comm.rank field, for in-package mpi tests), plus anything assigned from
// an expression mentioning one. Two forward passes approximate the
// fixpoint well enough for lint purposes.
func rankTaint(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	dep := func(e ast.Expr) bool { return exprRankDep(pass, e, tainted) }
	for range 2 {
		walkBody(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			mark := func(lhs ast.Expr) {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					return
				}
				if obj := pass.Info.Defs[id]; obj != nil {
					tainted[obj] = true
				} else if obj := pass.Info.Uses[id]; obj != nil {
					tainted[obj] = true
				}
			}
			if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
				if dep(as.Rhs[0]) {
					for _, lhs := range as.Lhs {
						mark(lhs)
					}
				}
				return true
			}
			for i, rhs := range as.Rhs {
				if i < len(as.Lhs) && dep(rhs) {
					mark(as.Lhs[i])
				}
			}
			return true
		})
	}
	return tainted
}

// exprRankDep reports whether e's value can differ between ranks.
func exprRankDep(pass *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	dep := false
	ast.Inspect(e, func(n ast.Node) bool {
		if dep {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, x); methodIs(fn, mpiPath, "Comm", "Rank") {
				dep = true
				return false
			}
		case *ast.SelectorExpr:
			// c.rank field access, visible to mpi's own tests.
			if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if pkg, name, ok := namedFrom(sel.Recv()); ok && pkg == mpiPath && name == "Comm" && x.Sel.Name == "rank" {
					dep = true
					return false
				}
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil && tainted[obj] {
				dep = true
				return false
			}
		}
		return true
	})
	return dep
}

// span is a half-open position range.
type span struct{ from, to token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.from && p < s.to }

// rankCondRegions collects the position ranges of statements guarded by a
// rank-dependent condition within one function body.
func rankCondRegions(pass *Pass, body *ast.BlockStmt, tainted map[types.Object]bool) []condRegion {
	var regions []condRegion
	add := func(cond ast.Expr, from, to token.Pos) {
		if exprRankDep(pass, cond, tainted) {
			regions = append(regions, condRegion{span{from, to}, cond.Pos()})
		}
	}
	walkBody(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			// The guarded region covers both arms: taking vs. skipping the
			// branch both desynchronize a collective placed inside.
			add(s.Cond, s.Body.Pos(), s.End())
		case *ast.SwitchStmt:
			if s.Tag != nil {
				add(s.Tag, s.Body.Pos(), s.End())
			}
			for _, cs := range s.Body.List {
				if cc, ok := cs.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						add(e, cc.Pos(), cc.End())
					}
				}
			}
		case *ast.ForStmt:
			if s.Cond != nil {
				add(s.Cond, s.Body.Pos(), s.End())
			}
		case *ast.RangeStmt:
			add(s.X, s.Body.Pos(), s.End())
		}
		return true
	})
	return regions
}

type condRegion struct {
	span
	condPos token.Pos
}

// checkRankConditioned flags collective calls inside rank-conditioned
// regions of one function body.
func checkRankConditioned(pass *Pass, body *ast.BlockStmt) {
	tainted := rankTaint(pass, body)
	regions := rankCondRegions(pass, body, tainted)
	if len(regions) == 0 {
		return
	}
	walkBody(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := collectiveCallee(pass.Info, call)
		if name == "" {
			return true
		}
		for _, r := range regions {
			if r.contains(call.Pos()) {
				pass.Reportf(call.Pos(),
					"mpi.%s under rank-dependent condition (line %d): every rank must execute the same ordered collective sequence, or the skipped ranks leave the others blocked",
					name, pass.Fset.Position(r.condPos).Line)
				return true
			}
		}
		return true
	})
}

// checkRunClosures flags conditional success returns that precede
// collectives inside closures passed to (*mpi.World).Run.
func checkRunClosures(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if fn := calleeFunc(pass.Info, call); !methodIs(fn, mpiPath, "World", "Run") {
			return true
		}
		lit, ok := call.Args[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		checkEarlySuccessReturns(pass, lit.Body)
		return true
	})
}

// checkEarlySuccessReturns is path-sensitive over the closure's CFG: a
// conditional `return nil` is a desertion only when a collective is
// reachable from the return's natural successor — the path the rank
// WOULD have executed had it not returned. The v1 check compared source
// positions (`collective after the return's end`), which misfired on
// nested arms whose every path returns before the collective; the CFG
// answers the reachability question exactly.
func checkEarlySuccessReturns(pass *Pass, body *ast.BlockStmt) {
	// Every branch body is a "conditional" region; a `return nil` inside
	// one is reachable by a subset of ranks only (error returns are exempt:
	// World.Run poisons the world on error, unblocking the rest).
	var branches []span
	walkBody(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			branches = append(branches, span{s.Body.Pos(), s.End()})
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			branches = append(branches, span{n.(ast.Stmt).Pos(), n.(ast.Stmt).End()})
		}
		return true
	})
	if len(branches) == 0 {
		return
	}
	g := BuildCFG(body)
	walkBody(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || !allNil(pass.Info, ret.Results) {
			return true
		}
		conditional := false
		for _, b := range branches {
			if b.contains(ret.Pos()) {
				conditional = true
				break
			}
		}
		if !conditional {
			return true
		}
		if call := firstReachableCollective(pass, g, g.AfterReturn(ret)); call != nil {
			pass.Reportf(ret.Pos(),
				"conditional `return nil` inside World.Run closure skips the mpi.%s at line %d on ranks that take it: success returns do not poison the world, so the remaining ranks block forever",
				collectiveCallee(pass.Info, call), pass.Fset.Position(call.Pos()).Line)
		}
		return true
	})
}

// firstReachableCollective returns the source-first collective call in
// any block reachable from `from`, or nil.
func firstReachableCollective(pass *Pass, g *CFG, from *Block) *ast.CallExpr {
	var best *ast.CallExpr
	for blk := range g.Reachable(from) {
		for _, s := range blk.Stmts {
			ast.Inspect(s, func(n ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if ok && collectiveCallee(pass.Info, call) != "" &&
					(best == nil || call.Pos() < best.Pos()) {
					best = call
				}
				return true
			})
		}
	}
	return best
}

// allNil reports whether every result expression is the predeclared nil.
func allNil(info *types.Info, results []ast.Expr) bool {
	if len(results) == 0 {
		return false
	}
	for _, r := range results {
		id, ok := ast.Unparen(r).(*ast.Ident)
		if !ok {
			return false
		}
		if _, isNil := info.Uses[id].(*types.Nil); !isNil {
			return false
		}
	}
	return true
}
