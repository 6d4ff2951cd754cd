// Command perfbench measures what it costs the host to simulate the
// three North-star scenarios: wall time, set-up time, CPU time,
// allocation and peak memory end to end (--trace 0), and a per-layer
// split from a CPU profile, the metrics registry and probes of single
// public entry points (--trace 1). Every run is a fresh child process
// driving one machine through harness.NewMachine, App.Setup,
// Machine.Run and App.Verify; the program under test is not modified.
//
//	bash perfbench/run.sh --workload water-sync --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result; the lines before
// it are the run manifest and a readable table. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// profileHz is the CPU-profile sampling rate of traced runs: above
// pprof's default 100 Hz so small layers rest on more samples. Linux
// CPU timers fire on the scheduler tick, so rates above the kernel's
// tick rate (commonly 250 Hz) gain nothing.
const profileHz = 250

// childTimeout bounds one child run; a deadlocked simulation counts as
// a failed run instead of hanging the benchmark.
const childTimeout = 120 * time.Second

// childProcs is the GOMAXPROCS of every child run. The event dispatcher
// is sequential, so exactly one goroutine of the machine is runnable at
// any time; a second P adds nothing but cross-thread wake-ups to every
// engine/processor handshake, whose latency depends on what else the
// host is running. On a 2-CPU host water-sync's run_s spread 0.64-0.93 s
// over repeated runs at GOMAXPROCS=2 against 0.52-0.60 s at 1.
const childProcs = 1

// minRuns is the fewest child runs one benchmark run makes per kind
// (timed, or traced and untraced in a traced run), however short
// --seconds is.
const minRuns = 3

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measuring time per workload")
	trace := flag.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end timed run")
	child := flag.Bool("child", false, "run one iteration and print it as JSON (internal)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *child {
		w, err := workloadByName(*name)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(childRun(w, *seed, *trace == 1)); err != nil {
			fatalf("write result: %v", err)
		}
		return
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	todo := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fatalf("%v", err)
		}
		todo = []workload{w}
	}
	// An interrupted benchmark kills its running child and exits
	// without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, w := range todo {
		if err := bench(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
			fatalf("%s: %v", w.name, err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// childRun is one iteration inside a fresh process. A traced iteration
// records a CPU profile around it and returns its samples by layer.
func childRun(w workload, seed uint64, traced bool) iteration {
	if !traced {
		return runIteration(w, seed, false)
	}
	var prof bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// warns on stderr that the default rate could not be applied.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return iteration{Err: "cpu profile: " + err.Error()}
	}
	it := runIteration(w, seed, true)
	pprof.StopCPUProfile()
	layers, err := layerSamples(prof.Bytes())
	if err != nil && it.Err == "" {
		it.Err = err.Error()
	}
	it.Layers = layers
	return it
}

// outcome is one child run as the parent saw it.
type outcome struct {
	it      iteration
	traced  bool
	cpuS    float64 // user + system CPU of the child process
	peakRSS float64 // bytes
}

// spawn runs one iteration in a fresh child process.
func spawn(ctx context.Context, w workload, seed uint64, traced bool) outcome {
	self, err := os.Executable()
	if err != nil {
		return outcome{it: iteration{Err: err.Error()}, traced: traced}
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--child", "--workload", w.name,
		"--seed", strconv.FormatUint(seed, 10), "--trace", tr)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	o := outcome{traced: traced}
	runErr := cmd.Run()
	if cmd.ProcessState != nil {
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		o.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		o.peakRSS = float64(ru.Maxrss) * 1024 // Linux reports KiB
	}
	if runErr != nil {
		msg := strings.TrimSpace(stderr.String())
		if i := strings.LastIndexByte(msg, '\n'); i >= 0 {
			msg = msg[i+1:]
		}
		o.it.Err = fmt.Sprintf("child: %v: %s", runErr, msg)
		return o
	}
	if err := json.Unmarshal(stdout.Bytes(), &o.it); err != nil {
		o.it.Err = "child output: " + err.Error()
	}
	return o
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// bench makes one benchmark run of w: child runs until d has passed
// (and at least minRuns of each kind), then the correctness gate and
// the metrics. A traced run alternates untraced and traced children so
// the untraced ones give host times and the tracing overhead.
func bench(ctx context.Context, w workload, seed uint64, d time.Duration, traced bool) error {
	var layerProbes map[string]float64
	if traced {
		prev := runtime.GOMAXPROCS(childProcs)
		layerProbes = probes()
		runtime.GOMAXPROCS(prev)
	}
	start := time.Now()
	var runs []outcome
	for i := 0; ; i++ {
		tracedRun := traced && i%2 == 1
		enough := i >= minRuns
		if traced {
			enough = i >= 2*minRuns && i%2 == 0
		}
		if enough && time.Since(start) >= d {
			break
		}
		runs = append(runs, spawn(ctx, w, seed, tracedRun))
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	ok, failed := gate(runs)

	m := manifest(w, seed, d, traced, ok)
	mj, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Printf("manifest %s\n", mj)
	for _, o := range runs {
		if o.it.Err != "" {
			fmt.Printf("failed run: %s\n", o.it.Err)
		}
	}

	var catalog []metric
	var vals map[string]float64
	if traced {
		catalog, vals = perLayer, layerValues(ok, layerProbes)
	} else {
		catalog, vals = endToEnd, endToEndValues(ok)
	}
	for _, mt := range catalog {
		line := fmt.Sprintf("%s %s %s %s", w.name, mt.name, strconv.FormatFloat(vals[mt.name], 'g', 6, 64), mt.unit)
		if f, found := endToEndSample[mt.name]; found && !traced {
			v := make([]float64, len(ok))
			for i, o := range ok {
				v[i] = f(o)
			}
			q1, q3 := quartiles(v)
			line += fmt.Sprintf(" (median of %d; q1 %.6g, q3 %.6g)", len(v), q1, q3)
		}
		fmt.Println(line)
	}
	fmt.Printf("%s fail_ratio %d/%d runs\n", w.name, failed, len(runs))

	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, len(runs), failed, report(catalog, vals)})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// gate is the correctness check over one benchmark run: every child
// must have verified its answer, and all must agree on the simulated
// results (cycles, counters and, where hashed, final memory), traced
// and untraced alike. The results most runs agree on are the reference;
// every run that differs from it, or erred, is failed. It returns the
// runs that passed and the number that failed.
func gate(runs []outcome) ([]outcome, int) {
	keys := make([]string, len(runs))
	votes := map[string]int{}
	for i, o := range runs {
		if o.it.Err != "" {
			continue
		}
		k, err := json.Marshal([]any{o.it.SimCycles, o.it.MemHash, o.it.Counters})
		if err != nil {
			continue
		}
		keys[i] = string(k)
		votes[keys[i]]++
	}
	ref := ""
	for k, n := range votes {
		if n > votes[ref] || (n == votes[ref] && k < ref) {
			ref = k
		}
	}
	var ok []outcome
	for i, o := range runs {
		if keys[i] != "" && keys[i] == ref {
			ok = append(ok, o)
			continue
		}
		if o.it.Err == "" {
			runs[i].it.Err = "simulated results differ from the other runs of this seed"
		}
	}
	return ok, len(runs) - len(ok)
}

func split(runs []outcome) (untraced, traced []outcome) {
	for _, o := range runs {
		if o.traced {
			traced = append(traced, o)
		} else {
			untraced = append(untraced, o)
		}
	}
	return untraced, traced
}

// endToEndSample reads each end-to-end metric off one child run; the
// reported value is the median over the runs that passed.
var endToEndSample = map[string]func(outcome) float64{
	"wall_s":         func(o outcome) float64 { return o.it.WallS },
	"setup_s":        func(o outcome) float64 { return o.it.BuildS + o.it.AppSetupS },
	"run_s":          func(o outcome) float64 { return o.it.RunS },
	"cpu_s":          func(o outcome) float64 { return o.cpuS },
	"alloc_bytes":    func(o outcome) float64 { return float64(o.it.Alloc) },
	"peak_rss_bytes": func(o outcome) float64 { return o.peakRSS },
	"sim_cycles":     func(o outcome) float64 { return float64(o.it.SimCycles) },
}

func endToEndValues(ok []outcome) map[string]float64 {
	v := map[string]float64{}
	for name, f := range endToEndSample {
		v[name] = median(ok, f)
	}
	return v
}

func layerValues(ok []outcome, layerProbes map[string]float64) map[string]float64 {
	v := map[string]float64{}
	for k, x := range layerProbes {
		v[k] = x
	}
	u, t := split(ok)
	if len(ok) > 0 {
		for k, x := range ok[0].it.Counters {
			v[k] = x
		}
	}
	runS := median(u, func(o outcome) float64 { return o.it.RunS })
	if ev := v["sim.events"]; ev > 0 {
		v["sim.ns_per_event"] = runS / ev * 1e9
	} else {
		v["sim.ns_per_event"] = 0
	}
	v["sim.engine_mode"] = 1
	if len(ok) > 0 && ok[0].it.Parallelized {
		v["sim.engine_mode"] = float64(ok[0].it.Workers)
	}
	v["runtime.gc_cycles"] = median(u, func(o outcome) float64 { return float64(o.it.GCCycles) })
	v["runtime.gc_pause_s"] = median(u, func(o outcome) float64 { return o.it.GCPauseS })
	v["harness.build_s"] = median(u, func(o outcome) float64 { return o.it.BuildS })
	v["harness.build_alloc_bytes"] = median(u, func(o outcome) float64 { return float64(o.it.BuildAlloc) })
	v["core.run_alloc_bytes"] = median(u, func(o outcome) float64 { return float64(o.it.RunAlloc) })
	v["apps.setup_s"] = median(u, func(o outcome) float64 { return o.it.AppSetupS })
	v["apps.setup_alloc_bytes"] = median(u, func(o outcome) float64 { return float64(o.it.SetupAlloc) })
	v["apps.verify_s"] = median(u, func(o outcome) float64 { return o.it.VerifyS })
	v["msync.lock_hit_ratio"] = 0
	if a := v["msync.lock_acquires"]; a > 0 {
		v["msync.lock_hit_ratio"] = v["msync.lock_hits"] / a
	}
	v["serve.host_us_per_request"] = 0
	if r := v["serve.requests"]; r > 0 {
		v["serve.host_us_per_request"] = runS / r * 1e6
	}
	v["trace.overhead_share"] = 0
	if runS > 0 {
		v["trace.overhead_share"] = median(t, func(o outcome) float64 { return o.it.RunS })/runS - 1
	}

	samples := map[string]int64{}
	var total int64
	for _, o := range t {
		for l, n := range o.it.Layers {
			if !slices.Contains(shareLayers, l) {
				l = layerOther
			}
			samples[l] += n
			total += n
		}
	}
	v["profile.samples"] = float64(total)
	for _, l := range shareLayers {
		share, count := shareName(l)
		v[count] = float64(samples[l])
		v[share] = 0
		if total > 0 {
			v[share] = float64(samples[l]) / float64(total)
		}
	}
	return v
}

// runManifest records the conditions a benchmark run was measured
// under, so two results can be compared only when they match.
type runManifest struct {
	Workload        string  `json:"workload"`
	Seed            uint64  `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Traced          bool    `json:"traced"`
	GoVersion       string  `json:"go_version"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GOGC            string  `json:"gogc"`
	EngineMode      string  `json:"engine_mode"`
	EngineRequested int     `json:"engine_workers_requested"`
	EngineFallback  string  `json:"engine_fallback"`
	ProfileHz       int     `json:"profile_hz,omitempty"`
	Runs            int     `json:"runs_ok"`
}

func manifest(w workload, seed uint64, d time.Duration, traced bool, ok []outcome) runManifest {
	m := runManifest{
		Workload: w.name, Seed: seed, Seconds: d.Seconds(), Traced: traced,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		GOGC:   os.Getenv("GOGC"), EngineMode: "sequential", Runs: len(ok),
	}
	if m.GOGC == "" {
		m.GOGC = "100 (default)"
	}
	if traced {
		m.ProfileHz = profileHz
	}
	if len(ok) > 0 {
		it := ok[0].it
		if it.Parallelized {
			m.EngineMode = "parallel"
		}
		m.EngineRequested, m.EngineFallback = it.Workers, it.Fallback
		m.GOMAXPROCS = it.GOMAXPROCS
	}
	return m
}
