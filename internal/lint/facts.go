package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"mgs/internal/lint/analysis"
)

// ComputeFacts summarizes one type-checked package for cross-package
// analysis: the allocation verdict, nondeterminism taint, and sink
// parameters of every declared function. Drivers call
// it in dependency order — imported resolves the facts of packages
// already analyzed — and thread the result to dependents (in memory
// standalone, through .vetx files under go vet).
//
// allow is the //mgslint:allow hook: a sanctioned slow-path allocation
// (//mgslint:allow noalloc at the call site) is excluded from the
// exported verdict so it does not poison transitive callers, and the
// consultation marks the allow used for dead-allow detection. Every
// declared function gets an entry, so "no fact" (an invisible body)
// stays distinguishable from "proven clean".
func ComputeFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info,
	imported func(path string) *analysis.PackageFacts, allow func(analyzer string, pos token.Pos) bool) *analysis.PackageFacts {
	pass := &analysis.Pass{
		Fset:          fset,
		Files:         files,
		Pkg:           pkg,
		TypesInfo:     info,
		ImportedFacts: imported,
		Allow:         allow,
	}
	g := graphFor(pass)
	allocs := allocInfoFor(pass)
	taints := taintFor(pass)

	pf := &analysis.PackageFacts{
		Path:  canonicalPath(pkg.Path()),
		Funcs: map[string]*analysis.FuncFact{},
	}
	for fn := range g.nodes {
		ff := &analysis.FuncFact{}
		if ai := allocs[fn]; ai != nil && ai.verdict != nil {
			ff.Allocates = true
			ff.AllocWhy = fmt.Sprintf("%s: %s", posString(fset, ai.verdict.pos), ai.verdict.why)
		}
		if tr := taints[fn]; tr != nil {
			ff.TaintBits = tr.retBits
			ff.TaintWhy = tr.retWhy
			ff.PropParams = tr.propParams
			ff.SinkParams = tr.sinkParams
		}
		pf.Funcs[funcID(fn)] = ff
	}
	return pf
}

func posString(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	return fmt.Sprintf("%s:%d", shortFile(pos.Filename), pos.Line)
}
