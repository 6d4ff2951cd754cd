package main

import (
	"regexp"
	"sort"
	"strings"
)

// metric is one named benchmark output.
type metric struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by an
// untraced run (--trace 0). fail_ratio is not among them: the result
// line carries it as failed/attempted, and a metric must never read 0.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"alloc_bytes", "bytes"},
	{"peak_rss_bytes", "bytes"},
	{"sim_cycles", "cycles"},
}

// shareLayers are the layers CPU-profile samples are charged to: the
// program's module names, the runtime split three ways plus the rest of
// it, and "other" for the standard library, the benchmark and any
// module not listed.
var shareLayers = []string{
	"sim", "core", "cache", "vm", "mem", "msg", "msync", "obs", "stats",
	"apps", "serve", "harness",
	layerSched, layerMalloc, layerGC, layerRTElse, layerOther,
}

// shareName returns the per-layer metric names of a layer's CPU share
// and its sample count: sim → sim.cpu_share, runtime.gc →
// runtime.gc_cpu_share.
func shareName(layer string) (share, samples string) {
	sep := "."
	if strings.Contains(layer, ".") {
		sep = "_"
	}
	return layer + sep + "cpu_share", layer + sep + "cpu_samples"
}

// perLayer are the metrics of a traced run (--trace 1). Every traced
// run reports all of them; the serve.* counts read 0 on workloads
// without a serving app.
var perLayer = func() []metric {
	ms := []metric{
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.switch_ns", "ns"},
		{"sim.switch_allocs", "count"},
		{"sim.dispatch_ns", "ns"},
		{"sim.engine_mode", "workers"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_s", "s"},
		{"harness.build_s", "s"},
		{"harness.build_alloc_bytes", "bytes"},
		{"core.read_faults", "count"},
		{"core.write_faults", "count"},
		{"core.twins", "count"},
		{"core.diffs", "count"},
		{"core.diff_bytes", "bytes"},
		{"core.release_rounds", "count"},
		{"core.dir_bytes", "bytes"},
		{"core.run_alloc_bytes", "bytes"},
		{"core.diff_ns", "ns"},
		{"core.mgs_cycles", "cycles"},
		{"vm.tlb_fills", "count"},
		{"vm.tlb_lookup_ns", "ns"},
		{"msg.inter_msgs", "count"},
		{"msg.intra_msgs", "count"},
		{"msg.inter_bytes", "bytes"},
		{"msg.link_wait_cycles", "cycles"},
		{"msync.lock_acquires", "count"},
		{"msync.lock_hit_ratio", "ratio"},
		{"msync.lock_cycles", "cycles"},
		{"msync.barrier_cycles", "cycles"},
		{"apps.setup_s", "s"},
		{"apps.setup_alloc_bytes", "bytes"},
		{"apps.verify_s", "s"},
		{"serve.requests", "count"},
		{"serve.host_us_per_request", "us"},
		{"serve.p99_cycles.steady", "cycles"},
		{"serve.p99_cycles.flash", "cycles"},
		{"profile.samples", "count"},
		{"trace.overhead_share", "ratio"},
	}
	for _, l := range shareLayers {
		share, samples := shareName(l)
		ms = append(ms, metric{share, "ratio"}, metric{samples, "count"})
	}
	return ms
}()

// metricName is the name grammar: a letter or digit, then up to 63
// letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the unit grammar: up to 16 letters, digits, '_', '/',
// '%', '.' or '-'.
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report assembles the metrics object for the given catalog from
// computed values; a catalog metric missing from vals is a bug.
func report(catalog []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(catalog))
	for _, m := range catalog {
		v, ok := vals[m.name]
		if !ok {
			panic("perfbench: metric " + m.name + " not computed")
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return out
}

// median returns the median of f over its samples.
func median[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return medianOf(v)
}

// quartiles returns the first and third quartile of v (the exclusive
// method, as Python's statistics.quantiles computes them).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		d := m - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}
