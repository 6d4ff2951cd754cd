// Benchmarks that regenerate every table and figure of the MGS paper's
// evaluation (§5), plus the design ablations from DESIGN.md. Each
// benchmark runs the corresponding experiment and reports the paper's
// quantities as custom metrics (cycles, breakup penalty, multigrain
// potential, lock hit ratios), so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. P defaults to 16 with reduced
// problem sizes so the full suite runs in minutes; set -mgs.full for
// the paper's P=32 shape with the larger scaled sizes.
package mgs_test

import (
	"flag"
	"fmt"
	"testing"

	"mgs/internal/exp"
	"mgs/internal/framework"
	"mgs/internal/harness"
)

var fullScale = flag.Bool("mgs.full", false, "paper-scale benchmarks: P=32, larger problem sizes")

func scale() (p int, mk func(string) harness.App) {
	if *fullScale {
		return 32, exp.NewApp
	}
	return 16, exp.SmallApp
}

// BenchmarkTable3Micro measures the primitive shared-memory costs.
func BenchmarkTable3Micro(b *testing.B) {
	var mi harness.Micro
	for i := 0; i < b.N; i++ {
		mi = exp.Table3()
	}
	b.ReportMetric(float64(mi.TLBFill), "tlbfill-cycles")
	b.ReportMetric(float64(mi.ReadMiss), "readmiss-cycles")
	b.ReportMetric(float64(mi.WriteMiss), "writemiss-cycles")
	b.ReportMetric(float64(mi.Release1W), "rel1w-cycles")
	b.ReportMetric(float64(mi.Release2W), "rel2w-cycles")
}

// BenchmarkTable4Speedups measures sequential time and tightly-coupled
// speedup per application.
func BenchmarkTable4Speedups(b *testing.B) {
	p, mk := scale()
	var rows []exp.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Table4(p, mk)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, r.App+"-speedup")
	}
}

// figure runs one Figures 6–10 sweep and reports the framework metrics.
func figure(b *testing.B, name string) {
	b.Helper()
	p, mk := scale()
	var m framework.Metrics
	var points []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, m, err = exp.FigureSweep(name, p, mk)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range points {
		b.ReportMetric(float64(pt.Res.Cycles), fmt.Sprintf("C%d-cycles", pt.C))
	}
	b.ReportMetric(m.BreakupPenalty*100, "breakup-pct")
	b.ReportMetric(m.MultigrainPotential*100, "potential-pct")
	b.ReportMetric(m.CurvatureIndex, "curvature-idx")
}

func BenchmarkFig6Jacobi(b *testing.B)     { figure(b, "jacobi") }
func BenchmarkFig7MatMul(b *testing.B)     { figure(b, "matmul") }
func BenchmarkFig8TSP(b *testing.B)        { figure(b, "tsp") }
func BenchmarkFig9Water(b *testing.B)      { figure(b, "water") }
func BenchmarkFig10BarnesHut(b *testing.B) { figure(b, "barnes-hut") }

// BenchmarkFig11LockHit reports the MGS lock hit ratio versus cluster
// size for the lock-using applications.
func BenchmarkFig11LockHit(b *testing.B) {
	p, mk := scale()
	names := []string{"tsp", "water", "barnes-hut"}
	var out map[string][]exp.HitPoint
	for i := 0; i < b.N; i++ {
		var err error
		out, err = exp.LockHitSweep(names, p, mk)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range names {
		for _, pt := range out[name] {
			b.ReportMetric(pt.Ratio, fmt.Sprintf("%s-C%d-hit", name, pt.C))
		}
	}
}

// BenchmarkFig12WaterKernel compares the plain and hand-tiled kernels.
func BenchmarkFig12WaterKernel(b *testing.B) {
	p, _ := scale()
	n := 16 * p
	var plain, tiled []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		plain, tiled, err = exp.Fig12(p, n)
		if err != nil {
			b.Fatal(err)
		}
	}
	mp := framework.Analyze(exp.FrameworkPoints(plain))
	mt := framework.Analyze(exp.FrameworkPoints(tiled))
	b.ReportMetric(mp.BreakupPenalty*100, "plain-breakup-pct")
	b.ReportMetric(mt.BreakupPenalty*100, "tiled-breakup-pct")
	b.ReportMetric(mt.MultigrainPotential*100, "tiled-potential-pct")
	b.ReportMetric(float64(plain[0].Res.Cycles)/float64(tiled[0].Res.Cycles), "tiled-speedup-C1")
}

// benchOnOff runs the named exp.OnOffAblations entry on Water and
// reports each cluster size's changed/base cycle ratio as C<c>-<ratio>.
func benchOnOff(b *testing.B, kind, ratio string) {
	p, mk := scale()
	var base, changed []harness.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		base, changed, err = exp.AblationOnOff("water", p, exp.OnOffAblations[kind].Change, mk)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := range base {
		b.ReportMetric(float64(changed[i].Res.Cycles)/float64(base[i].Res.Cycles),
			fmt.Sprintf("C%d-%s", base[i].C, ratio))
	}
}

// BenchmarkAblationSingleWriter quantifies the single-writer
// optimization (§3.1.1) on Water.
func BenchmarkAblationSingleWriter(b *testing.B) { benchOnOff(b, "1writer", "off/on") }

// BenchmarkAblationSerialInv compares serial and parallel release-round
// invalidations.
func BenchmarkAblationSerialInv(b *testing.B) { benchOnOff(b, "serialinv", "par/serial") }

// BenchmarkAblationPageSize sweeps the coherence grain (§2.2) for TSP,
// whose false sharing makes it grain sensitive.
func BenchmarkAblationPageSize(b *testing.B) {
	p, mk := scale()
	var pts []exp.PageSizePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = exp.AblationPageSize("tsp", p, 4, []int{512, 1024, 2048}, mk)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(float64(pt.Cycles), fmt.Sprintf("page%d-cycles", pt.PageSize))
	}
}

// BenchmarkExtLU sweeps the LU extension application (not in the
// paper's suite; a sixth sharing pattern — block ownership with
// broadcast pivot reads).
func BenchmarkExtLU(b *testing.B) {
	p, mk := scale()
	var m framework.Metrics
	for i := 0; i < b.N; i++ {
		var err error
		_, m, err = exp.FigureSweep("lu", p, mk)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.BreakupPenalty*100, "breakup-pct")
	b.ReportMetric(m.MultigrainPotential*100, "potential-pct")
}

// BenchmarkAblationUpdateProtocol compares invalidate-based release
// rounds (the paper's eager protocol) with the update-based variant its
// related work discusses (Galactica Net).
func BenchmarkAblationUpdateProtocol(b *testing.B) { benchOnOff(b, "update", "upd/inv") }

// BenchmarkAblationMesh compares the paper's uniform fixed-delay
// inter-SSMP LAN against the contended 2D-mesh topology extension, at a
// per-hop latency chosen so the mean uncontended mesh latency matches
// the uniform delay (isolating non-uniformity and link contention).
func BenchmarkAblationMesh(b *testing.B) { benchOnOff(b, "mesh", "mesh/uniform") }

// BenchmarkAblationLazy compares the paper's eager release consistency
// with the TreadMarks-style lazy variant its related work discusses:
// releases stop invalidating remote copies; lock grants and barrier
// exits validate the acquiring SSMP against home versions instead.
func BenchmarkAblationLazy(b *testing.B) { benchOnOff(b, "lazy", "lazy/eager") }
