// Package obs is the observability spine: one pluggable layer that
// every software engine of the simulator reports through. It has three
// legs, all strictly zero-cost in simulated cycles and structurally
// detached when disabled:
//
//   - a structured trace bus (Event) with pluggable sinks: typed
//     protocol transitions, transport fates, synchronization operations
//     and engine handshakes, timestamped in virtual time. The classic
//     "t=<cycle> ..." text log is one sink (TextSink); a Chrome
//     trace_event JSON exporter for chrome://tracing / Perfetto is
//     another (ChromeSink).
//
//   - a metrics registry (Registry): named counters, gauges, and
//     virtual-time histograms with fixed bucket layouts, so that two
//     runs of one simulation snapshot identically. internal/stats,
//     internal/core, internal/msync, and the fault transport register
//     here instead of hand-rolling counter fields.
//
//   - a cycle store (Profiler): every simulated cycle a run charges is
//     stored once, in a (processor, object) row under its runtime
//     component, where the object is the page, lock, or barrier the
//     cycles were spent on. The stats breakdown is the store's
//     per-processor view. With profiling enabled the store tracks
//     objects and emits per-page heat reports and collapsed-stack
//     files for flamegraph tooling; with it off, each processor has
//     one row.
//
// Determinism contract: obs code runs on the simulated path (sinks fire
// from engine context), so everything here is deterministic — virtual
// timestamps only, no host clocks, no map-iteration-order leaks, and no
// simulated cycles are ever charged from an emission path. mgslint
// enforces all three (the package is on the deterministic allow-list,
// and chargecost inverts for this package: an emission path that
// charges cycles is a diagnostic).
//
// A nil *Observer is valid everywhere and means "observability off";
// every method short-circuits, so instrumented code needs no branches
// beyond the nil test the helpers already perform.
package obs

// Observer bundles the three legs. The zero value is unusable; call
// New. A nil *Observer is the disabled spine: Tracing reports false,
// Emit is a no-op, Registry returns nil, and the profiler never exists.
type Observer struct {
	sinks   []Sink
	reg     *Registry
	prof    *Profiler
	profile bool
}

// New returns an Observer with a fresh metrics registry, no sinks, and
// profiling off.
func New() *Observer {
	return &Observer{reg: NewRegistry()}
}

// AddSink attaches a trace sink and returns the observer (chainable).
func (o *Observer) AddSink(s Sink) *Observer {
	o.sinks = append(o.sinks, s)
	return o
}

// EnableProfiling turns on object attribution in the cycle store of the
// machine the observer is attached to (NewProfiler), and makes that
// store the observer's Profiler. Returns the observer (chainable).
func (o *Observer) EnableProfiling() *Observer {
	o.profile = true
	return o
}

// Tracing reports whether any trace sink is attached. Emitters must
// check it before building an Event so the disabled path stays free.
func (o *Observer) Tracing() bool { return o != nil && len(o.sinks) > 0 }

// Emit publishes one event to every sink, in attach order. Emission
// charges no simulated cycles — events are timestamped with the virtual
// time the emitter passes in, never with a clock read.
func (o *Observer) Emit(e Event) {
	for _, s := range o.sinks {
		s.Emit(e)
	}
}

// Registry returns the metrics registry, or nil on a nil observer.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Profiler returns the cycle store of the machine the observer
// watches, or nil when profiling is off.
func (o *Observer) Profiler() *Profiler {
	if o == nil {
		return nil
	}
	return o.prof
}

// Metrics snapshots the registry (nil observer: no metrics).
func (o *Observer) Metrics() []Metric {
	if o == nil || o.reg == nil {
		return nil
	}
	return o.reg.Snapshot()
}
