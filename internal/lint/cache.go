package lint

import (
	"go/types"

	"mgs/internal/lint/analysis"
)

// The interprocedural results (call graph, alloc/taint fixpoints) are
// needed twice per package: once by ComputeFacts before any analyzer
// runs, and once by the analyzer that reports from them.
// They are pure functions of the type-checked package, the allow list,
// and the imported facts — all identical within one RunPackage — so a
// process-wide memo keyed by the package's *types.Info (unique per
// load) shares the work. mgslint is a one-shot, single-threaded
// process; the memo lives for tens of packages at most.
type pkgCache struct {
	anns  *mgsAnnotations
	graph *callGraph
	alloc map[*types.Func]*allocInfo
	taint map[*types.Func]*taintResult
}

var pkgCaches = map[*types.Info]*pkgCache{}

func cacheFor(pass *analysis.Pass) *pkgCache {
	c, ok := pkgCaches[pass.TypesInfo]
	if !ok {
		c = &pkgCache{}
		pkgCaches[pass.TypesInfo] = c
	}
	return c
}

func annsFor(pass *analysis.Pass) *mgsAnnotations {
	c := cacheFor(pass)
	if c.anns == nil {
		c.anns = collectAnnotations(pass)
	}
	return c.anns
}

func graphFor(pass *analysis.Pass) *callGraph {
	c := cacheFor(pass)
	if c.graph == nil {
		c.graph = buildCallGraph(pass, nil)
	}
	return c.graph
}

func allocInfoFor(pass *analysis.Pass) map[*types.Func]*allocInfo {
	c := cacheFor(pass)
	if c.alloc == nil {
		c.alloc = computeAllocInfo(pass, graphFor(pass))
	}
	return c.alloc
}

func taintFor(pass *analysis.Pass) map[*types.Func]*taintResult {
	c := cacheFor(pass)
	if c.taint == nil {
		c.taint = computeTaint(pass, graphFor(pass))
	}
	return c.taint
}
