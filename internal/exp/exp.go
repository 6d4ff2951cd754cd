// Package exp defines the paper's experiments: every table and figure
// of the evaluation section (§5) is regenerable from here, plus the
// ablations DESIGN.md calls out. cmd/mgs-sweep, cmd/mgs-micro, and the
// repository benchmarks are thin wrappers over this package.
package exp

import (
	"fmt"

	"mgs/internal/apps"
	"mgs/internal/framework"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/serve"
	"mgs/internal/sim"
)

// AppNames lists the application suite in the paper's order.
var AppNames = []string{"jacobi", "matmul", "tsp", "water", "barnes-hut"}

// NewApp returns a fresh paper-default instance of the named app. The
// problem sizes are the scaled defaults recorded in EXPERIMENTS.md.
func NewApp(name string) harness.App {
	switch name {
	case "jacobi":
		return &apps.Jacobi{N: 128, Iters: 10}
	case "matmul":
		return &apps.MatMul{N: 128}
	case "tsp":
		return &apps.TSP{NCities: 10, Depth: 4}
	case "water":
		return &apps.Water{N: 64, Iters: 2}
	case "barnes-hut", "barnes":
		return &apps.BarnesHut{NBodies: 96, Iters: 2, Theta: 0.6}
	case "water-kernel":
		return &apps.WaterKernel{N: 256, Tiled: false}
	case "water-kernel-tiled":
		return &apps.WaterKernel{N: 256, Tiled: true}
	case "lu":
		return &apps.LU{N: 128, B: 16}
	case "serve":
		return apps.NewServe(serve.DefaultWorkload(false, 1))
	case "syncbench":
		return &apps.SyncBench{Iters: 12}
	}
	panic(fmt.Sprintf("exp: unknown app %q", name))
}

// SmallApp returns a reduced instance for quick runs and tests.
func SmallApp(name string) harness.App {
	switch name {
	case "jacobi":
		return &apps.Jacobi{N: 48, Iters: 3}
	case "matmul":
		return &apps.MatMul{N: 24}
	case "tsp":
		return &apps.TSP{NCities: 7, Depth: 3}
	case "water":
		return &apps.Water{N: 24, Iters: 1}
	case "barnes-hut", "barnes":
		return &apps.BarnesHut{NBodies: 32, Iters: 1, Theta: 0.6}
	case "water-kernel":
		return &apps.WaterKernel{N: 128, Tiled: false}
	case "water-kernel-tiled":
		return &apps.WaterKernel{N: 128, Tiled: true}
	case "lu":
		return &apps.LU{N: 48, B: 8}
	case "serve":
		return apps.NewServe(serve.DefaultWorkload(true, 1))
	case "syncbench":
		return &apps.SyncBench{Iters: 4}
	}
	panic(fmt.Sprintf("exp: unknown app %q", name))
}

// Config returns the paper's experiment configuration: 1K-byte pages,
// 1000-cycle inter-SSMP delay, null MGS calls at C = P (§5.2.1), with
// any functional options applied on top.
func Config(p, c int, opts ...harness.Option) harness.Config {
	return harness.NewConfig(p, c, opts...)
}

// Table3 measures the micro costs (Table 3).
func Table3() harness.Micro { return harness.MeasureMicro() }

// Table4Row is one line of Table 4.
type Table4Row struct {
	App     string
	Seq     sim.Time // sequential cycles (P=1, with SVM overhead)
	Par     sim.Time // cycles on P processors, tightly coupled (C=P)
	Speedup float64
}

// Table4 reports sequential runtime and tightly-coupled speedup per
// application (Table 4). mk selects the instance size (NewApp or
// SmallApp). The 2·len(AppNames) runs are independent simulations and
// execute concurrently (harness.SweepWorkers governs the width).
func Table4(p int, mk func(string) harness.App) ([]Table4Row, error) {
	n := len(AppNames)
	runs := make([]harness.Result, 2*n) // [2k] = seq, [2k+1] = par
	errs := harness.RunIndexed(2*n, func(i int) error {
		name := AppNames[i/2]
		var err error
		if i%2 == 0 {
			runs[i], err = harness.RunApp(mk(name), Config(1, 1))
			if err != nil {
				return fmt.Errorf("table4 %s seq: %w", name, err)
			}
		} else {
			runs[i], err = harness.RunApp(mk(name), Config(p, p))
			if err != nil {
				return fmt.Errorf("table4 %s par: %w", name, err)
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var rows []Table4Row
	for k, name := range AppNames {
		seq, par := runs[2*k], runs[2*k+1]
		rows = append(rows, Table4Row{
			App: name, Seq: seq.Cycles, Par: par.Cycles,
			Speedup: float64(seq.Cycles) / float64(par.Cycles),
		})
	}
	return rows, nil
}

// FigureSweep reproduces one of Figures 6–10: the named app across all
// power-of-two cluster sizes at fixed P, returning the per-point
// results and the §2.4 framework metrics.
func FigureSweep(name string, p int, mk func(string) harness.App) ([]harness.SweepPoint, framework.Metrics, error) {
	points, err := harness.Sweep(func() harness.App { return mk(name) },
		p, harness.PowersOfTwo(p), func(c int) harness.Config { return Config(p, c) })
	if err != nil {
		return nil, framework.Metrics{}, err
	}
	return points, metricsOf(points), nil
}

func metricsOf(points []harness.SweepPoint) framework.Metrics {
	var fp []framework.Point
	for _, pt := range points {
		fp = append(fp, framework.Point{C: pt.C, Time: float64(pt.Res.Cycles)})
	}
	return framework.Analyze(fp)
}

// FrameworkPoints converts sweep points for framework analysis and
// printing.
func FrameworkPoints(points []harness.SweepPoint) []framework.Point {
	var fp []framework.Point
	for _, pt := range points {
		fp = append(fp, framework.Point{C: pt.C, Time: float64(pt.Res.Cycles)})
	}
	return fp
}

// HitPoint is one Figure 11 sample.
type HitPoint struct {
	C     int
	Ratio float64
}

// LockHitSweep reproduces Figure 11: MGS lock hit ratio versus cluster
// size for the lock-using applications. The C = P point is excluded (no
// MGS locks run there), as in the figure.
func LockHitSweep(names []string, p int, mk func(string) harness.App) (map[string][]HitPoint, error) {
	cs := harness.PowersOfTwo(p / 2)
	ratios := make([]float64, len(names)*len(cs))
	errs := harness.RunIndexed(len(ratios), func(i int) error {
		name, c := names[i/len(cs)], cs[i%len(cs)]
		res, err := harness.RunApp(mk(name), Config(p, c))
		if err != nil {
			return fmt.Errorf("fig11 %s C=%d: %w", name, c, err)
		}
		if res.LockTotal > 0 {
			ratios[i] = float64(res.LockHits) / float64(res.LockTotal)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string][]HitPoint)
	for i, name := range names {
		for j, c := range cs {
			out[name] = append(out[name], HitPoint{C: c, Ratio: ratios[i*len(cs)+j]})
		}
	}
	return out, nil
}

// Fig12 reproduces Figure 12: the Water force kernel without and with
// the tiling transformation, swept across cluster sizes.
func Fig12(p, n int) (plain, tiled []harness.SweepPoint, err error) {
	plain, err = harness.Sweep(func() harness.App { return &apps.WaterKernel{N: n, Tiled: false} },
		p, harness.PowersOfTwo(p), func(c int) harness.Config { return Config(p, c) })
	if err != nil {
		return nil, nil, fmt.Errorf("fig12 plain: %w", err)
	}
	tiled, err = harness.Sweep(func() harness.App { return &apps.WaterKernel{N: n, Tiled: true} },
		p, harness.PowersOfTwo(p), func(c int) harness.Config { return Config(p, c) })
	if err != nil {
		return nil, nil, fmt.Errorf("fig12 tiled: %w", err)
	}
	return plain, tiled, nil
}

// PageSizePoint is one page-size ablation sample.
type PageSizePoint struct {
	PageSize int
	Cycles   sim.Time
}

// AblationPageSize runs the named app at one cluster size across page
// sizes (§2.2's grain trade-off: larger pages amortize protocol
// overhead but aggravate false sharing).
func AblationPageSize(name string, p, c int, sizes []int, mk func(string) harness.App) ([]PageSizePoint, error) {
	out := make([]PageSizePoint, len(sizes))
	errs := harness.RunIndexed(len(sizes), func(i int) error {
		cfg := Config(p, c)
		cfg.PageSize = sizes[i]
		res, err := harness.RunApp(mk(name), cfg)
		if err != nil {
			return fmt.Errorf("pagesize %d: %w", sizes[i], err)
		}
		out[i] = PageSizePoint{PageSize: sizes[i], Cycles: res.Cycles}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// OnOffAblation is one design ablation: a configuration change swept
// against the default configuration (DESIGN.md's ablations).
type OnOffAblation struct {
	// Title heads the mgs-sweep report.
	Title string
	// Base and Changed label the default and the changed sweep.
	Base, Changed string
	// Change turns the default configuration into the ablated one.
	Change func(cfg *harness.Config)
}

// OnOffAblations are the on/off ablations by mgs-sweep -ablation name.
var OnOffAblations = map[string]OnOffAblation{
	// The paper's single-writer optimization (§3.1.1).
	"1writer": {"single-writer optimization ablation", "with", "without",
		func(cfg *harness.Config) { cfg.Protocol.SingleWriter = false }},
	// Serial versus parallel release-round invalidations.
	"serialinv": {"serial vs parallel invalidation ablation", "serial", "parallel",
		func(cfg *harness.Config) { cfg.Protocol.SerialInv = false }},
	// Invalidate-based (the paper's) versus update-based (Galactica
	// Net-style) release rounds.
	"update": {"invalidate vs update protocol ablation", "invalidate", "update",
		func(cfg *harness.Config) { cfg.Protocol.UpdateProtocol = true }},
	// The paper's eager release consistency versus the TreadMarks-style
	// lazy variant (the §6 comparison): releases stop invalidating,
	// acquires validate instead.
	"lazy": {"eager vs lazy release consistency", "eager", "lazy",
		func(cfg *harness.Config) { cfg.Protocol.LazyRelease = true }},
	// The paper's uniform fixed-delay inter-SSMP LAN versus the
	// contended 2D-mesh topology extension (internal/msg mesh.go). A
	// 250-cycle hop makes the average uncontended mesh latency at C=1,
	// P=32 (a 6×6 grid, ~4 mean hops) comparable to the paper's
	// 1000-cycle uniform delay, isolating the effect of non-uniformity
	// and link contention.
	"mesh": {"uniform LAN vs contended 2D-mesh interconnect", "uniform", "mesh",
		func(cfg *harness.Config) {
			cfg.Msg.Topology = msg.NewMesh2D()
			cfg.Msg.InterPerHop = 250
		}},
}

// AblationOnOff sweeps the named app over the software region's
// cluster sizes twice: with the default configuration (base) and with
// change applied to it (changed).
func AblationOnOff(name string, p int, change func(cfg *harness.Config), mk func(string) harness.App) (base, changed []harness.SweepPoint, err error) {
	cfgFor := func(apply bool) func(c int) harness.Config {
		return func(c int) harness.Config {
			cfg := Config(p, c)
			if apply {
				change(&cfg)
			}
			return cfg
		}
	}
	cs := harness.PowersOfTwo(p / 2) // software region only
	base, err = harness.Sweep(func() harness.App { return mk(name) }, p, cs, cfgFor(false))
	if err != nil {
		return nil, nil, err
	}
	changed, err = harness.Sweep(func() harness.App { return mk(name) }, p, cs, cfgFor(true))
	return base, changed, err
}
