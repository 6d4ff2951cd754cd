package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"mgs/internal/msync/algo.(*mcs).acquire", "mgs/internal/msync.(*System).Lock"}, "msync"},
		{[]string{"mgs/internal/core.(*System).access", "mgs/internal/harness.(*Ctx).LoadF64"}, "core"},
		{[]string{"mgs/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		// Assist marking inside an allocation is the collector's work.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1",
			"runtime.gcAssistAlloc", "runtime.mallocgc", "mgs/internal/core.newPage"}, layerGC},
		{[]string{"runtime.(*sweepLocked).sweep", "runtime.(*mcentral).cacheSpan",
			"runtime.(*mcache).refill", "runtime.mallocgc"}, layerGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"mgs/internal/core.(*pageArena).put"}, layerMalloc},
		{[]string{"runtime.nextFreeFast", "runtime.newobject", "mgs/internal/sim.(*Proc).Sleep"}, layerMalloc},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, layerSched},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.lock2", "runtime.chanrecv",
			"runtime.chanrecv1", "mgs/internal/sim.(*Proc).block"}, layerSched},
		{[]string{"runtime/internal/syscall.Syscall6", "runtime.futex", "runtime.futexwakeup"}, layerSched},
		// A runtime helper called straight from program code is neither
		// collection, allocation nor scheduling.
		{[]string{"runtime.memmove", "mgs/internal/core.(*System).fetch", "runtime.goexit"}, layerRTElse},
		{[]string{"runtime.mapaccess2_fast64", "mgs/internal/msync.(*System).Lock"}, layerRTElse},
		{[]string{"sort.insertionSortCmpFunc", "mgs/internal/core.x"}, layerOther},
		{[]string{"main.runIteration"}, layerOther},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData"}, layerOther},
		{nil, layerOther},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// pb is a minimal protobuf writer for hand-built test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, body []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(body)))
	p.b = append(p.b, body...)
	return p
}

func (p *pb) packed(field int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(field, body)
}

func TestLayerSamplesDecodesProfile(t *testing.T) {
	fn := func(id, name uint64) []byte { return (&pb{}).varint(1, id).varint(2, name).b }
	line := func(fid uint64) []byte { return (&pb{}).varint(1, fid).b }
	var prof pb
	for _, s := range []string{"", "samples", "count", "runtime.mallocgc",
		"mgs/internal/msync/algo.(*ticket).acquire", "mgs/internal/msync.(*System).Lock",
		"mgs/internal/core.(*System).access"} {
		prof.bytes(fProfileString, []byte(s))
	}
	prof.bytes(fProfileFunction, fn(1, 3)).bytes(fProfileFunction, fn(2, 4)).
		bytes(fProfileFunction, fn(3, 5)).bytes(fProfileFunction, fn(4, 6))
	// Location 10 holds algo's acquire inlined into msync's Lock:
	// innermost line first.
	prof.bytes(fProfileLocation, (&pb{}).varint(1, 10).bytes(4, line(2)).bytes(4, line(3)).b)
	prof.bytes(fProfileLocation, (&pb{}).varint(1, 11).bytes(4, line(1)).b)
	prof.bytes(fProfileLocation, (&pb{}).varint(1, 12).bytes(4, line(4)).b)
	// Packed location ids and values.
	prof.bytes(fProfileSample, (&pb{}).packed(1, 11, 10, 12).packed(2, 3, 30000000).b)
	// Unpacked location id and values.
	prof.bytes(fProfileSample, (&pb{}).varint(1, 10).varint(2, 2).varint(2, 20000000).b)
	prof.bytes(fProfileSample, (&pb{}).varint(1, 12).varint(2, 5).varint(2, 50000000).b)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"raw": prof.b, "gzip": gz.Bytes()} {
		got, err := layerSamples(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := map[string]int64{layerMalloc: 3, "msync": 2, "core": 5}
		if len(got) != len(want) {
			t.Errorf("%s: layers = %v, want %v", name, got, want)
		}
		for l, n := range want {
			if got[l] != n {
				t.Errorf("%s: layer %s = %d samples, want %d (all: %v)", name, l, got[l], n, got)
			}
		}
	}
	if _, err := layerSamples([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestLayerSamplesReadsRuntimeProfile checks the decoder against the
// format runtime/pprof actually writes.
func TestLayerSamplesReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	pprof.StopCPUProfile()
	probeSink += int64(x)
	layers, err := layerSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range layers {
		total += n
	}
	if total > 0 && layers[layerOther] == 0 {
		t.Errorf("busy loop in the test binary not charged to %q: %v", layerOther, layers)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.ns_per_event", "serve.p99_cycles.flash", "9lives", "a-b",
		strings.Repeat("x", 64)} {
		if !metricName.MatchString(ok) {
			t.Errorf("name %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "x/y", "x:y", "é", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric %q breaks the name grammar", m.name)
		}
		if !unitName.MatchString(m.unit) {
			t.Errorf("metric %q has unit %q outside the unit grammar", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q defined twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the
// runner of the benchmark reads, in step with what the program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.name, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestEveryMetricReported runs each workload once untraced and once
// traced, as the child processes do, and checks that every end-to-end
// and per-layer metric is computed from what they return.
func TestEveryMetricReported(t *testing.T) {
	layerProbes := probes()
	for _, w := range workloads {
		if testing.Short() && w.name == "jacobi-scale" {
			continue // a P=1024 machine takes seconds and hundreds of MB
		}
		t.Run(w.name, func(t *testing.T) {
			plain := outcome{it: runIteration(w, 1, false), cpuS: 1, peakRSS: 1}
			traced := outcome{it: childRun(w, 1, true), traced: true}
			for _, o := range []outcome{plain, traced} {
				if o.it.Err != "" {
					t.Fatal(o.it.Err)
				}
			}
			runs := []outcome{plain, traced}
			if ok, failed := gate(runs); failed != 0 {
				t.Fatalf("traced and untraced runs disagree: %d failed, %v", failed, runs)
			} else {
				for _, c := range []struct {
					catalog []metric
					vals    map[string]float64
				}{{endToEnd, endToEndValues(ok)}, {perLayer, layerValues(ok, layerProbes)}} {
					for _, m := range c.catalog {
						if _, found := c.vals[m.name]; !found {
							t.Errorf("metric %s not computed", m.name)
						}
					}
				}
				if v := endToEndValues(ok); v["sim_cycles"] <= 0 || v["alloc_bytes"] <= 0 {
					t.Errorf("end-to-end values not measured: %v", v)
				}
			}
			if w.name == "serve-flash" && plain.it.Counters["serve.requests"] == 0 {
				t.Error("serve-flash reported no requests")
			}
		})
	}
}

func TestGateFailsDisagreeingRuns(t *testing.T) {
	run := func(cycles int64, hash, err string) outcome {
		return outcome{it: iteration{SimCycles: cycles, MemHash: hash, Err: err,
			Counters: map[string]float64{"core.diffs": 7}}}
	}
	runs := []outcome{run(100, "a", ""), run(100, "a", ""), run(101, "a", ""),
		run(100, "b", ""), run(100, "a", "verify: wrong answer")}
	ok, failed := gate(runs)
	if len(ok) != 2 || failed != 3 {
		t.Fatalf("gate passed %d and failed %d runs, want 2 and 3", len(ok), failed)
	}
	for i := 2; i < 4; i++ {
		if runs[i].it.Err == "" {
			t.Errorf("run %d differs from the reference but carries no error", i)
		}
	}
	counted := run(100, "a", "")
	counted.it.Counters = map[string]float64{"core.diffs": 8}
	if _, failed := gate([]outcome{run(100, "a", ""), run(100, "a", ""), counted}); failed != 1 {
		t.Errorf("run with different counters: %d failed, want 1", failed)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
