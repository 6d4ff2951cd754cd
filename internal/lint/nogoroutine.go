package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mgs/internal/lint/analysis"
)

// NoGoroutine forbids spawning goroutines and using channels in
// deterministic packages (plus internal/harness). Processors are
// runtime coroutines, so the engine needs neither; the only sanctioned
// site is the harness sweep worker pool, annotated with
// //mgslint:allow. Any other goroutine or channel operation hands event
// ordering to the Go scheduler and breaks bit-for-bit reproducibility.
var NoGoroutine = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid go statements and channel operations in deterministic packages " +
		"outside the annotated worker-pool sites",
	Run: runNoGoroutine,
}

func runNoGoroutine(pass *analysis.Pass) error {
	if !scopeNoGoroutine(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range sourceFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement hands scheduling to the Go runtime in deterministic package %s; only the sweep worker pool may spawn", pass.Pkg.Path())
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send outside the engine handshake: channel ordering is scheduler-dependent")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive outside the engine handshake: channel ordering is scheduler-dependent")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement: case choice is scheduler- and timing-dependent")
			case *ast.RangeStmt:
				if t, ok := info.Types[n.X]; ok {
					if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "range over channel: receive ordering is scheduler-dependent")
					}
				}
			case *ast.CallExpr:
				id, ok := ast.Unparen(n.Fun).(*ast.Ident)
				if !ok {
					return true
				}
				if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
					return true
				}
				switch id.Name {
				case "make":
					if t, ok := info.Types[n]; ok {
						if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
							pass.Reportf(n.Pos(), "make(chan ...) outside the engine handshake: channels introduce scheduler-visible communication")
						}
					}
				case "close":
					if len(n.Args) == 1 {
						if t, ok := info.Types[n.Args[0]]; ok {
							if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
								pass.Reportf(n.Pos(), "close of channel outside the engine handshake")
							}
						}
					}
				}
			}
			return true
		})
	}
	return nil
}
