package lint_test

import (
	"testing"

	"mgs/internal/lint"
	"mgs/internal/lint/analysistest"
)

func TestNoWallTime(t *testing.T) {
	analysistest.Run(t, "testdata/nowalltime", lint.NoWallTime,
		"mgs/internal/vm", "mgs/internal/stats", "mgs/internal/fault", "mgs/internal/check")
}

func TestNoGoroutine(t *testing.T) {
	analysistest.Run(t, "testdata/nogoroutine", lint.NoGoroutine,
		"mgs/internal/mem", "mgs/internal/harness", "mgs/internal/exp")
}

func TestMapRange(t *testing.T) {
	analysistest.Run(t, "testdata/maprange", lint.MapRange,
		"mgs/internal/cache", "mgs/internal/check")
}

func TestChargeCost(t *testing.T) {
	analysistest.Run(t, "testdata/chargecost", lint.ChargeCost,
		"mgs/internal/msg", "mgs/internal/core", "mgs/internal/obs")
}

func TestEngineCtx(t *testing.T) {
	analysistest.Run(t, "testdata/enginectx", lint.EngineCtx,
		"mgs/internal/sim", "mgs/internal/core")
}

func TestPkgVar(t *testing.T) {
	analysistest.Run(t, "testdata/pkgvar", lint.PkgVar,
		"mgs/internal/msync", "mgs/internal/harness")
}

func TestNoAlloc(t *testing.T) {
	analysistest.Run(t, "testdata/noalloc", lint.NoAlloc,
		"mgs/internal/mem", "mgs/internal/core")
}

func TestDetFlow(t *testing.T) {
	analysistest.Run(t, "testdata/detflow", lint.DetFlow,
		"mgs/internal/cache", "mgs/internal/core")
}
