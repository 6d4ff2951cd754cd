package lint

import (
	"go/ast"
	"go/types"

	"mgs/internal/lint/analysis"
)

// EngineCtx enforces the engine/processor context split documented in
// internal/sim/proc.go: event callbacks (function literals scheduled
// via Engine.At/AtChoice/After or delivered via Network.Send) run in
// engine context, where only the engine-safe Proc methods (Wake,
// AddDebt, HandlerStart, Parked, ...) are legal; the yielding methods
// (Sleep, Park, Yield) and the clock-advancing Advance must only run in
// the proc's own body coroutine. Violating this either panics in the
// coroutine switch or advances a clock the engine believes is frozen.
//
// The analyzer builds a same-package call graph, seeds engine context
// from every callback literal passed to At/AtChoice/After/Send, seeds
// proc context from functions with a *sim.Proc receiver or parameter
// that are not engine-reachable, and then:
//
//   - rule 1: flags calls to Proc.Sleep/Park/Yield/Advance inside
//     engine-reachable code that is not also proc-reachable (functions
//     reachable both ways are skipped — the analysis cannot decide
//     them);
//   - rule 2: flags direct writes to fields of engine-owned state
//     (sim.Engine, core's duq) from proc-only code outside the owning
//     type's own methods — proc-context code must go through the
//     sanctioned transfer API (Engine.At/After, duq.add/remove/pop).
var EngineCtx = &analysis.Analyzer{
	Name: "enginectx",
	Doc:  "enforce the engine-context/proc-context split: no yielding Proc calls from event callbacks, no direct engine-state writes from proc code",
	Run:  runEngineCtx,
}

// procOnlyMethods are the Proc methods that yield to the engine or
// advance the local clock: body-goroutine only.
var procOnlyMethods = []string{"Sleep", "Park", "Yield", "Advance"}

func runEngineCtx(pass *analysis.Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo

	// Engine-context roots: callback literals handed to the scheduler.
	// They are collected from a plain syntax walk first so the call
	// graph can avoid attributing their bodies to the function that
	// merely schedules them.
	rootSet := map[*ast.FuncLit]bool{}
	var rootLits []*ast.FuncLit
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				callee := calleeOf(info, call)
				if isMethodOn(callee, "sim", "Engine", "At", "AtChoice", "After") ||
					isMethodOn(callee, "msg", "Network", "Send") ||
					isMethodOn(callee, "sim", "Proc", "Wake") {
					for _, a := range call.Args {
						if lit, ok := a.(*ast.FuncLit); ok {
							rootSet[lit] = true
							rootLits = append(rootLits, lit)
						}
					}
				}
			}
			return true
		})
	}
	g := buildFuncGraphSkipping(pass, rootSet)

	// Named functions called (same-package) from the engine-context
	// literals, then everything those reach.
	var engineSeeds []*types.Func
	for _, lit := range rootLits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := calleeOf(info, call); callee != nil && callee.Pkg() == pass.Pkg {
					if _, declared := g.decls[callee]; declared {
						engineSeeds = append(engineSeeds, callee)
					}
				}
			}
			return true
		})
	}
	engineReach := g.reach(engineSeeds)

	// Proc-context roots: declared functions with a *sim.Proc receiver
	// or parameter that the engine cannot reach.
	var procSeeds []*types.Func
	for fn := range g.decls {
		if engineReach[fn] {
			continue
		}
		sig := fn.Type().(*types.Signature)
		isProcFn := sig.Recv() != nil && typeIs(sig.Recv().Type(), "sim", "Proc")
		for i := 0; !isProcFn && i < sig.Params().Len(); i++ {
			isProcFn = typeIs(sig.Params().At(i).Type(), "sim", "Proc")
		}
		if isProcFn {
			procSeeds = append(procSeeds, fn)
		}
	}
	procReach := g.reach(procSeeds)

	// Rule 1: yielding calls from engine-only code. The root literals
	// themselves are engine context by construction; named functions
	// are checked without re-entering nested root literals (each is
	// visited once, as a root).
	flagYields := func(body ast.Node, skip map[*ast.FuncLit]bool) {
		inspectSkipping(body, skip, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if callee := calleeOf(info, call); isMethodOn(callee, "sim", "Proc", procOnlyMethods...) {
				pass.Reportf(call.Pos(),
					"Proc.%s yields or advances the local clock: it must run on the proc's body goroutine, but this call site is engine context (an event callback); use Wake/AddDebt/HandlerStart here",
					callee.Name())
			}
		})
	}
	for _, lit := range rootLits {
		nested := map[*ast.FuncLit]bool{}
		for l := range rootSet {
			if l != lit {
				nested[l] = true
			}
		}
		flagYields(lit.Body, nested)
	}
	for fn, decl := range g.decls {
		if engineReach[fn] && !procReach[fn] {
			flagYields(decl.Body, rootSet)
		}
	}

	// Rule 2: direct writes to engine-owned state from proc-only code.
	ownedType := func(t types.Type) string {
		switch {
		case typeIs(t, "sim", "Engine"):
			return "sim.Engine"
		case typeIs(t, "core", "duq"):
			return "core.duq"
		}
		return ""
	}
	for fn, decl := range g.decls {
		if !procReach[fn] || engineReach[fn] {
			continue
		}
		sig := fn.Type().(*types.Signature)
		recvOwned := sig.Recv() != nil && ownedType(sig.Recv().Type()) != ""
		if recvOwned {
			continue // the owning type's own methods are the sanctioned API
		}
		checkWrite := func(lhs ast.Expr) {
			// Unwrap element writes: d.member[k] = true is a write to
			// the member field just as much as d.queue = nil is.
			e := ast.Unparen(lhs)
			for {
				if ix, ok := e.(*ast.IndexExpr); ok {
					e = ast.Unparen(ix.X)
					continue
				}
				if st, ok := e.(*ast.StarExpr); ok {
					e = ast.Unparen(st.X)
					continue
				}
				break
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			if t, ok := info.Types[sel.X]; ok {
				if owned := ownedType(t.Type); owned != "" {
					pass.Reportf(lhs.Pos(),
						"direct write to %s field %s from proc-context code: engine-owned state must be mutated through its own methods (Engine.At/After, duq.add/remove/pop)",
						owned, sel.Sel.Name)
				}
			}
		}
		inspectSkipping(decl.Body, rootSet, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkWrite(lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(n.X)
			}
		})
	}
	return nil
}
