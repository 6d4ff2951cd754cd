package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mgs/internal/apps"
	"mgs/internal/exp"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/obs"
	"mgs/internal/serve"
	"mgs/internal/stats"
)

// serveStretch lengthens every phase of the default serving schedule at
// unchanged arrival rates, so one serve-flash run lasts about as long as
// a water-sync run instead of the default's few hundredths of a second.
const serveStretch = 30

// workload is one fixed scenario of the benchmark. Every run builds a
// fresh machine and app from it; the seed reaches the program only as
// generated input (the serving trace), never as a configuration switch.
type workload struct {
	name string
	why  string
	// build returns a fresh app and machine configuration for seed.
	build func(seed uint64) (harness.App, harness.Config)
	// memHash asks for the final shared-memory image to be hashed and
	// compared across runs of the same seed.
	memHash bool
}

// workloads are the three North-star scenarios, in report order.
var workloads = []workload{
	{
		name: "water-sync",
		why:  "Water P=32 C=4 on the uniform LAN: lock- and barrier-heavy, bound by the proc handshake, small heap",
		build: func(uint64) (harness.App, harness.Config) {
			return &apps.Water{N: 128, Iters: 2}, exp.Config(32, 4)
		},
	},
	{
		name: "jacobi-scale",
		why:  "Jacobi P=1024 C=1 on the tiered LAN/WAN: page arenas and cache models at their largest, allocation- and GC-bound",
		build: func(uint64) (harness.App, harness.Config) {
			return exp.ScaleApp("jacobi", 1024), exp.Config(1024, 1, harness.WithTopology(msg.NewTiered(0)))
		},
	},
	{
		name: "serve-flash",
		why:  "KV store P=32 C=4, open-loop steady/drift/flash trace from the seed: shard-lock writes, most proc switches per event",
		build: func(seed uint64) (harness.App, harness.Config) {
			w := serve.DefaultWorkload(false, seed)
			for i := range w.Phases {
				w.Phases[i].Cycles *= serveStretch
			}
			return apps.NewServe(w), exp.Config(32, 4)
		},
		memHash: true,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// iteration is what one child process reports about one run: the spans
// timed around each public call, the allocation each span caused, and
// the simulated results used for the correctness gate and the per-layer
// counters.
type iteration struct {
	Err string `json:"err,omitempty"`

	BuildS    float64 `json:"build_s"`     // harness.NewMachine
	AppSetupS float64 `json:"app_setup_s"` // App.Setup
	RunS      float64 `json:"run_s"`       // Machine.Run
	VerifyS   float64 `json:"verify_s"`    // App.Verify
	WallS     float64 `json:"wall_s"`      // build start to verified result

	BuildAlloc uint64 `json:"build_alloc"`
	SetupAlloc uint64 `json:"setup_alloc"`
	RunAlloc   uint64 `json:"run_alloc"`
	Alloc      uint64 `json:"alloc"` // build + setup + run + verify

	GOMAXPROCS int     `json:"gomaxprocs"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseS   float64 `json:"gc_pause_s"`

	SimCycles    int64  `json:"sim_cycles"`
	Parallelized bool   `json:"parallelized"`
	Workers      int    `json:"engine_workers_requested"`
	Fallback     string `json:"engine_fallback,omitempty"`
	MemHash      string `json:"mem_hash,omitempty"`

	// Counters holds the simulated per-layer counts: Result fields,
	// registry counters and gauges, and serving percentiles. They are
	// deterministic, so traced and untraced runs must agree on all of
	// them.
	Counters map[string]float64 `json:"counters"`

	// Layers holds CPU-profile self samples by layer (traced runs only).
	Layers map[string]int64 `json:"layers,omitempty"`
}

// span times f and returns its wall seconds and allocated bytes.
func span(f func()) (float64, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return d, after.TotalAlloc - before.TotalAlloc
}

// runIteration performs one build/setup/run/verify of w. With traced
// set, an observer registry is attached to the machine; the caller
// owns any CPU profiling around it.
func runIteration(w workload, seed uint64, traced bool) iteration {
	app, cfg := w.build(seed)
	if traced {
		cfg.Obs = obs.New()
	}
	it := iteration{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	t0 := time.Now()

	var m *harness.Machine
	it.BuildS, it.BuildAlloc = span(func() { m = harness.NewMachine(cfg) })
	it.AppSetupS, it.SetupAlloc = span(func() { app.Setup(m) })
	var res harness.Result
	var err error
	it.RunS, it.RunAlloc = span(func() { res, err = m.Run(app.Body) })
	if err != nil {
		it.Err = fmt.Sprintf("%s: run: %v", w.name, err)
		return it
	}
	var verr error
	var verifyAlloc uint64
	it.VerifyS, verifyAlloc = span(func() { verr = app.Verify(m) })
	it.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&gcAfter)
	if verr != nil {
		it.Err = fmt.Sprintf("%s: verify: %v", w.name, verr)
		return it
	}
	it.Alloc = it.BuildAlloc + it.SetupAlloc + it.RunAlloc + verifyAlloc
	it.GCCycles = gcAfter.NumGC - gcBefore.NumGC
	it.GCPauseS = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e9

	it.SimCycles = int64(res.Cycles)
	it.Parallelized = m.Eng.Parallelized()
	it.Workers = cfg.EngineWorkers
	it.Fallback = engineFallback(m, it.Parallelized)
	it.Counters = counters(m, res, app)
	if w.memHash {
		sum := sha256.Sum256(m.DSM.SnapshotMemory())
		it.MemHash = hex.EncodeToString(sum[:])
	}
	return it
}

// engineFallback names why a requested parallel dispatcher did not run,
// as far as it is visible from outside the harness; "" when it ran or
// was never requested.
func engineFallback(m *harness.Machine, parallelized bool) string {
	cfg := m.Cfg
	switch {
	case cfg.EngineWorkers <= 1 || parallelized:
		return ""
	case m.Net.Lookahead() == 0:
		return "topology reports zero lookahead"
	case cfg.Obs.Tracing() || cfg.Obs.Profiler() != nil:
		return "tracing or profiling observer attached"
	case cfg.Disabled:
		return "software layer disabled (C = P)"
	}
	return "harness or engine eligibility gate refused"
}

// counters collects the run's simulated counts by per-layer metric
// name. Registry names are the ones core, msync and serve register; the
// registry is the observer's on traced runs and the collector's own
// otherwise.
func counters(m *harness.Machine, res harness.Result, app harness.App) map[string]float64 {
	reg := map[string]float64{}
	for _, mt := range m.Stats.Registry().Snapshot() {
		if mt.Kind != obs.HistogramKind {
			reg[mt.Name] = float64(mt.Value)
		}
	}
	c := map[string]float64{
		"core.read_faults":        reg["fault.read"],
		"core.write_faults":       reg["fault.write"],
		"core.twins":              reg["twin"],
		"core.diffs":              reg["diff"],
		"core.diff_bytes":         reg["diffbytes"],
		"core.release_rounds":     reg["rel"],
		"core.dir_bytes":          float64(res.Dir.Bytes),
		"core.mgs_cycles":         float64(res.Breakdown.Total[stats.MGS]),
		"vm.tlb_fills":            reg["tlb.fills"],
		"msg.inter_msgs":          float64(res.InterMsgs),
		"msg.intra_msgs":          float64(res.IntraMsgs),
		"msg.inter_bytes":         float64(res.InterBytes),
		"msg.link_wait_cycles":    float64(res.LinkWait),
		"msync.lock_acquires":     float64(res.LockTotal),
		"msync.lock_hits":         float64(res.LockHits),
		"msync.lock_cycles":       float64(res.Breakdown.Total[stats.Lock]),
		"msync.barrier_cycles":    float64(res.Breakdown.Total[stats.Barrier]),
		"sim.events":              float64(m.Eng.Dispatched()),
		"serve.requests":          0,
		"serve.p99_cycles.steady": 0,
		"serve.p99_cycles.flash":  0,
	}
	if s, ok := app.(*apps.Serve); ok {
		rep := s.Report(res, serve.SLO{})
		c["serve.requests"] = float64(rep.Requests)
		for _, ph := range rep.Phases {
			switch ph.Phase {
			case "steady":
				c["serve.p99_cycles.steady"] = ph.P99
			case "flash":
				c["serve.p99_cycles.flash"] = ph.P99
			}
		}
	}
	return c
}
