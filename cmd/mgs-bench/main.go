// mgs-bench measures the simulator's host-side performance — the hot
// paths a sweep spends its wall-clock in — and writes the results to a
// JSON file for tracking across commits.
//
// Usage:
//
//	mgs-bench                      # full suite → BENCH_sim.json
//	mgs-bench -small -out /tmp/b.json
//	mgs-bench -app water -p 32
//
// The microbenchmarks cover the software-TLB lookup, the twin/diff
// kernel, event dispatch, and the end-to-end shared-memory access fast
// path. The sweep section times one figure sweep sequentially and with
// the parallel runner; on a single-core host the two coincide. The host
// section records the CPU count, GOMAXPROCS and Go version the numbers
// were measured under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mgs/internal/cli"
	"mgs/internal/core"
	"mgs/internal/exp"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// BenchResult is one microbenchmark's outcome.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// HostResult is the context every timing in the report was measured
// under.
type HostResult struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// SweepResult times one figure sweep under both runners.
type SweepResult struct {
	App        string  `json:"app"`
	P          int     `json:"p"`
	SeqSeconds float64 `json:"seq_seconds"`
	ParSeconds float64 `json:"par_seconds"`
	Speedup    float64 `json:"speedup"`
}

// ScaleDirPoint is one cluster size of a thousand-processor scale
// curve: execution time, link contention, and the Server's directory
// footprint at end of run.
type ScaleDirPoint struct {
	C          int   `json:"c"`
	Cycles     int64 `json:"cycles"`
	LinkWait   int64 `json:"link_wait"`
	DirPages   int   `json:"dir_pages"`
	DirRmt     int   `json:"dir_rmt_entries"`
	DirCoarse  int   `json:"dir_coarse_pages"`
	DirBytes   int64 `json:"dir_bytes"`
	DenseBytes int64 `json:"dense_equiv_bytes"`
}

// ScaleResult is one P's scale curve on the tiered topology, with the
// §2.4 framework metrics and the directory-memory measurement the
// hierarchical coarse-vector directory exists for: dir_bytes versus
// what a dense per-SSMP directory would occupy on the same run.
type ScaleResult struct {
	App                 string          `json:"app"`
	Topology            string          `json:"topology"`
	P                   int             `json:"p"`
	Seconds             float64         `json:"seconds"`
	BreakupPenalty      float64         `json:"breakup_penalty"`
	MultigrainPotential float64         `json:"multigrain_potential"`
	Note                string          `json:"note"`
	Points              []ScaleDirPoint `json:"points"`
}

// Report is the file schema of BENCH_sim.json.
type Report struct {
	Host       HostResult    `json:"host"`
	Benchmarks []BenchResult `json:"benchmarks"`
	Sweep      SweepResult   `json:"sweep"`
	Scale      []ScaleResult `json:"scale"`
}

func bench(name string, fn func(b *testing.B)) BenchResult {
	r := testing.Benchmark(fn)
	return BenchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// diffPage builds a 1K twin/current pair with the bytes selected by
// changed mutated.
func diffPage(changed func(i int) bool) (twin, cur []byte) {
	twin = make([]byte, 1024)
	cur = make([]byte, 1024)
	for i := range twin {
		twin[i] = byte(i * 7)
		cur[i] = twin[i]
		if changed(i) {
			cur[i] ^= 0xFF
		}
	}
	return twin, cur
}

var diffSink core.Diff

// benchDiff measures the steady-state diff path: a warmed DiffBuf, as
// the protocol's pooled release rounds use it. main refuses to write a
// report where these allocate — zero allocs per op is a contract, not
// an observation.
func benchDiff(changed func(i int) bool) func(b *testing.B) {
	return func(b *testing.B) {
		twin, cur := diffPage(changed)
		var buf core.DiffBuf
		buf.Compute(twin, cur)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			diffSink = buf.Compute(twin, cur)
		}
	}
}

// benchDiffOwned measures the throwaway form (core.ComputeDiff): scratch
// from the pool, an exact-size owned clone out. Its contract is two
// allocations per op — the clone's range headers and payload slab —
// never the cold buffer's growth walk.
func benchDiffOwned(b *testing.B) {
	twin, cur := diffPage(func(i int) bool { return i%128 < 8 })
	core.ComputeDiff(twin, cur) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diffSink = core.ComputeDiff(twin, cur)
	}
}

var privSink vm.Priv

func benchTLB(b *testing.B) {
	t := vm.NewTLB(64)
	for i := 0; i < 64; i++ {
		t.Insert(vm.Page(i), vm.Read)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, _ := t.Lookup(vm.Page(i & 63))
		privSink = p
	}
}

func benchDispatch(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	b.ReportAllocs()
	e.At(0, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// homedAddr returns an address on a page interleave-homed on processor
// 0, so proc 0's post-fault accesses stay on the hit path.
func homedAddr(m *harness.Machine) vm.Addr {
	va := m.Alloc(2 * m.Cfg.PageSize)
	if int(m.DSM.Space().PageOf(va))%m.Cfg.P != 0 {
		va += vm.Addr(m.Cfg.PageSize)
	}
	return va
}

func benchAccess(b *testing.B) {
	m := harness.NewMachine(harness.NewConfig(2, 1))
	va := homedAddr(m)
	b.ReportAllocs()
	if _, err := m.RunPer(func(i int) func(c *harness.Ctx) {
		if i != 0 {
			return func(*harness.Ctx) {}
		}
		return func(c *harness.Ctx) {
			c.LoadI64(va)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				c.LoadI64(va)
			}
			b.StopTimer()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// timeSweep runs one figure sweep at the given worker setting and
// reports the wall-clock plus the summed cycle count (a checksum the
// caller compares across runner modes).
func timeSweep(app string, p int, mk func(string) harness.App, w int) (float64, sim.Time, error) {
	old := harness.SweepWorkers
	harness.SweepWorkers = w
	defer func() { harness.SweepWorkers = old }()
	start := time.Now()
	points, _, err := exp.FigureSweep(app, p, mk)
	if err != nil {
		return 0, 0, err
	}
	var sum sim.Time
	for _, pt := range points {
		sum += pt.Res.Cycles
	}
	return time.Since(start).Seconds(), sum, nil
}

// scaleCurve runs the thousand-processor scale experiment at one P on
// the tiered LAN/WAN topology and distills the framework metrics plus
// the directory-memory measurement. It refuses to report a run where
// the directory footprint grew past a small multiple of the page count
// — O(sharers) is a contract, not an observation.
func scaleCurve(app string, p int) (ScaleResult, error) {
	topo := msg.NewTiered(0)
	start := time.Now()
	points, m, err := exp.ScaleSweep(app, p, topo, exp.ScaleClusterSizes(p))
	if err != nil {
		return ScaleResult{}, err
	}
	res := ScaleResult{
		App: app, Topology: "tiered", P: p,
		Seconds:             time.Since(start).Seconds(),
		BreakupPenalty:      m.BreakupPenalty,
		MultigrainPotential: m.MultigrainPotential,
		Note: "dir_bytes is the hierarchical directory's footprint (O(sharers) per page); " +
			"dense_equiv_bytes is what one record per SSMP per page would occupy",
	}
	for _, pt := range points {
		nssmp := p / pt.C
		res.Points = append(res.Points, ScaleDirPoint{
			C: pt.C, Cycles: int64(pt.Cycles), LinkWait: pt.LinkWait,
			DirPages: pt.Dir.Pages, DirRmt: pt.Dir.RmtEntries,
			DirCoarse: pt.Dir.CoarsePages, DirBytes: pt.Dir.Bytes,
			DenseBytes: pt.Dir.DenseBytes(nssmp),
		})
		if pt.Dir.Pages > 0 && pt.Dir.RmtEntries > 8*pt.Dir.Pages {
			return res, fmt.Errorf("scale P=%d C=%d: directory not O(sharers): %d entries for %d pages",
				p, pt.C, pt.Dir.RmtEntries, pt.Dir.Pages)
		}
	}
	return res, nil
}

func main() {
	t := cli.New("mgs-bench").MachineFlags("water", 32, 0, false)
	out := flag.String("out", "BENCH_sim.json", "output file")
	t.Parse()

	mk := t.Apps()
	rep := Report{
		Host: HostResult{
			NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(),
		},
		Benchmarks: []BenchResult{
			bench("TLBLookup", benchTLB),
			bench("ComputeDiffClean", benchDiff(func(int) bool { return false })),
			bench("ComputeDiffSparse", benchDiff(func(i int) bool { return i%128 < 8 })),
			bench("ComputeDiffDense", benchDiff(func(int) bool { return true })),
			bench("ComputeDiffOwned", benchDiffOwned),
			bench("EngineDispatch", benchDispatch),
			bench("AccessFastPath", benchAccess),
		},
	}
	for _, b := range rep.Benchmarks {
		fmt.Printf("  %-20s %10.2f ns/op %6d B/op %4d allocs/op\n",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
		switch {
		case b.Name == "ComputeDiffOwned":
			if b.AllocsPerOp > 2 {
				log.Fatalf("%s allocated %d times per op; the owned form's budget is the clone's 2 (headers + slab)", b.Name, b.AllocsPerOp)
			}
		case strings.HasPrefix(b.Name, "ComputeDiff"):
			if b.AllocsPerOp != 0 {
				log.Fatalf("%s allocated %d times per op; the buffered diff path must be allocation-free", b.Name, b.AllocsPerOp)
			}
		}
	}

	seqS, seqSum, err := timeSweep(t.App, t.P, mk, 1)
	if err != nil {
		log.Fatal(err)
	}
	parS, parSum, err := timeSweep(t.App, t.P, mk, 0)
	if err != nil {
		log.Fatal(err)
	}
	if seqSum != parSum {
		log.Fatalf("parallel sweep diverged: seq cycles %d, par cycles %d", seqSum, parSum)
	}
	rep.Sweep = SweepResult{
		App: t.App, P: t.P,
		SeqSeconds: seqS, ParSeconds: parS, Speedup: seqS / parS,
	}
	fmt.Printf("  sweep %s P=%d: seq %.2fs, par %.2fs (%.2fx, GOMAXPROCS=%d)\n",
		t.App, t.P, seqS, parS, seqS/parS, rep.Host.GoMaxProcs)

	for _, p := range []int{256, 1024} {
		sc, err := scaleCurve("jacobi", p)
		if err != nil {
			log.Fatal(err)
		}
		rep.Scale = append(rep.Scale, sc)
		soft := sc.Points[0]
		fmt.Printf("  scale jacobi P=%d tiered: %.2fs, breakup %.0f%%, potential %.0f%%, dir %dB vs dense %dB at C=1\n",
			p, sc.Seconds, sc.BreakupPenalty*100, sc.MultigrainPotential*100, soft.DirBytes, soft.DenseBytes)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
