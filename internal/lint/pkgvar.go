package lint

import (
	"go/ast"
	"go/types"

	"mgs/internal/lint/analysis"
)

// PkgVar forbids writes to package-level variables of deterministic
// packages outside func init. A machine's state lives in the machine:
// the sweep pool (harness.RunIndexed) runs independent machines on
// concurrent goroutines, and a later run must not see what an earlier
// one left behind, so a package-level var written at run time is both a
// data race and a run-to-run leak. Internally synchronized types
// (sync.Pool, sync.Once, sync/atomic values, ...) are exempt: they
// guard themselves and hold no simulated state.
var PkgVar = &analysis.Analyzer{
	Name: "pkgvar",
	Doc:  "no run-time writes to package-level vars of deterministic packages (func init excepted)",
	Run:  runPkgVar,
}

func runPkgVar(pass *analysis.Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range sourceFiles(pass) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (fd.Name.Name == "init" && fd.Recv == nil) {
				continue
			}
			check := func(lhs ast.Expr) {
				if v := pkgLevelVar(info, pass.Pkg, lhs); v != nil && !syncedType(v.Type()) {
					pass.Reportf(lhs.Pos(),
						"write to package-level var %s from a deterministic package: concurrent sweep runs share it; make it per-machine state or move the write into func init",
						v.Name())
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						check(lhs)
					}
				case *ast.IncDecStmt:
					check(s.X)
				}
				return true
			})
		}
	}
	return nil
}

// pkgLevelVar resolves an assignment target to a package-level variable
// of pkg, or nil.
func pkgLevelVar(info *types.Info, pkg *types.Package, lhs ast.Expr) *types.Var {
	v, ok := rootObj(info, lhs).(*types.Var)
	if !ok || v.IsField() || v.Pkg() != pkg || v.Parent() != pkg.Scope() {
		return nil
	}
	return v
}

// syncedType reports whether t is internally synchronized: the sync and
// sync/atomic types guard themselves.
func syncedType(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}
