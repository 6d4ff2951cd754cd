package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mgs/internal/sim"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Tracing() {
		t.Fatal("nil observer reports tracing")
	}
	if o.Registry() != nil {
		t.Fatal("nil observer has a registry")
	}
	NewProfiler(4, 4, o)
	if o.Profiler() != nil {
		t.Fatal("nil observer has a profiler")
	}
	if o.Metrics() != nil {
		t.Fatal("nil observer has metrics")
	}
}

func TestObserverSinksAndEmit(t *testing.T) {
	o := New()
	if o.Tracing() {
		t.Fatal("observer with no sinks reports tracing")
	}
	mem := &MemSink{}
	o.AddSink(mem)
	if !o.Tracing() {
		t.Fatal("observer with a sink does not report tracing")
	}
	o.Emit(Event{T: 42, Proc: 3, Cat: Protocol, Name: "SERVE", Kind: ObjPage, ID: 7})
	if len(mem.Events) != 1 || mem.Events[0].Name != "SERVE" {
		t.Fatalf("emit did not reach sink: %+v", mem.Events)
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: 100, Proc: 2, Cat: Sync, Name: "GRANT", Kind: ObjLock, ID: 5, Detail: "to=2"}
	if got, want := e.String(), "t=100 lock=5 GRANT to=2"; got != want {
		t.Fatalf("Event.String() = %q, want %q", got, want)
	}
	e2 := Event{T: 9, Name: "DROP", Detail: "seq=1", Dur: 30}
	if got, want := e2.String(), "t=9 DROP seq=1 dur=30"; got != want {
		t.Fatalf("Event.String() = %q, want %q", got, want)
	}
}

func TestFilterSink(t *testing.T) {
	mem := &MemSink{}
	f := Filter(mem, func(e Event) bool { return e.Kind == ObjPage && e.ID == 1 })
	f.Emit(Event{Kind: ObjPage, ID: 1, Name: "A"})
	f.Emit(Event{Kind: ObjPage, ID: 2, Name: "B"})
	f.Emit(Event{Kind: ObjLock, ID: 1, Name: "C"})
	if len(mem.Events) != 1 || mem.Events[0].Name != "A" {
		t.Fatalf("filter passed wrong events: %+v", mem.Events)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Add("fault.read", 3)
	r.Add("fault.read", 2)
	r.Counter("twin").Add(1)
	live := int64(10)
	r.Gauge("tlb.evictions", func() int64 { return live })

	if got := r.Counter("fault.read").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	cs := r.CounterStrings()
	want := []string{"fault.read=5", "twin=1"}
	if len(cs) != 2 || cs[0] != want[0] || cs[1] != want[1] {
		t.Fatalf("CounterStrings = %v, want %v", cs, want)
	}

	live = 11
	snap := r.Snapshot()
	// counters (sorted), then gauges, then hists.
	if len(snap) != 3 || snap[2].Name != "tlb.evictions" || snap[2].Value != 11 {
		t.Fatalf("snapshot gauge wrong: %+v", snap)
	}
	if snap[0].Name != "fault.read" || snap[1].Name != "twin" {
		t.Fatalf("snapshot counter order wrong: %+v", snap)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lock.wait", nil)
	if h2 := r.Histogram("lock.wait", []int64{1}); h2 != h {
		t.Fatal("re-registration created a new histogram")
	}
	h.Observe(50)        // bucket le100
	h.Observe(100)       // bucket le100 (inclusive edge)
	h.Observe(101)       // bucket le300
	h.Observe(5_000_000) // overflow
	if h.Count() != 4 || h.Sum() != 50+100+101+5_000_000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	bounds, counts := h.Buckets()
	if len(counts) != len(bounds)+1 {
		t.Fatalf("bucket layout: %d bounds, %d counts", len(bounds), len(counts))
	}
	if counts[0] != 2 || counts[1] != 1 || counts[len(counts)-1] != 1 {
		t.Fatalf("bucket counts wrong: %v", counts)
	}
	m := Metric{Name: "lock.wait", Kind: HistogramKind, Value: h.Count(), Sum: h.Sum(), Bounds: bounds, Counts: counts}
	s := m.String()
	if !strings.Contains(s, "n=4") || !strings.Contains(s, "le100=2") || !strings.Contains(s, "inf=1") {
		t.Fatalf("histogram string: %q", s)
	}
}

func TestProfilerAttributionAndReconciliation(t *testing.T) {
	p := NewProfiler(2, 4, New().EnableProfiling())
	// proc 0 works on page 7 in comp 3, then lock 1 in comp 1.
	k, id := p.SetContext(0, ObjPage, 7)
	if k != ObjNone || id != 0 {
		t.Fatalf("initial context = %v/%d", k, id)
	}
	p.Charge(0, 3, 100)
	p.Charge(0, 3, 50)
	p.SetContext(0, ObjLock, 1)
	p.Charge(0, 1, 30)
	p.SetContext(0, k, id) // restore
	p.Charge(0, 0, 5)
	// proc 1, no context.
	p.Charge(1, 0, 7)

	samples := p.Samples()
	if len(samples) != 4 {
		t.Fatalf("samples = %+v", samples)
	}
	// Sorted by (Proc, Comp, Kind, ID).
	if samples[0].Key != (ProfKey{Proc: 0, Comp: 0, Kind: ObjNone}) || samples[0].Cycles != 5 {
		t.Fatalf("sample 0: %+v", samples[0])
	}
	if samples[2].Key != (ProfKey{Proc: 0, Comp: 3, Kind: ObjPage, ID: 7}) || samples[2].Cycles != 150 {
		t.Fatalf("sample 2: %+v", samples[2])
	}

	// The rows sum per processor to what the samples say.
	var tot [2][4]sim.Time
	p.EachRow(func(proc int, _ ObjKind, _ int64, cycles []sim.Time) {
		for c, v := range cycles {
			tot[proc][c] += v
		}
	})
	if tot != [2][4]sim.Time{{5, 30, 0, 150}, {7, 0, 0, 0}} {
		t.Fatalf("row totals: %+v", tot)
	}

	heat := p.Heat(ObjPage)
	if len(heat) != 1 || heat[0].ID != 7 || heat[0].Cycles != 150 || heat[0].ByComp[3] != 150 {
		t.Fatalf("heat: %+v", heat)
	}

	var buf bytes.Buffer
	names := []string{"User", "Lock", "Barrier", "MGS"}
	if err := p.WriteCollapsed(&buf, func(i int) string { return names[i] }); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"proc0;User;(none) 5\n",
		"proc0;Lock;lock:1 30\n",
		"proc0;MGS;page:7 150\n",
		"proc1;User;(none) 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("collapsed output missing %q:\n%s", want, out)
		}
	}
}

func TestProfilerHeatOrdering(t *testing.T) {
	p := NewProfiler(1, 1, New().EnableProfiling())
	p.SetContext(0, ObjPage, 3)
	p.Charge(0, 0, 10)
	p.SetContext(0, ObjPage, 1)
	p.Charge(0, 0, 10)
	p.SetContext(0, ObjPage, 2)
	p.Charge(0, 0, 99)
	heat := p.Heat(ObjPage)
	if len(heat) != 3 || heat[0].ID != 2 || heat[1].ID != 1 || heat[2].ID != 3 {
		t.Fatalf("heat order: %+v", heat)
	}
}

func TestChromeSinkValidJSON(t *testing.T) {
	c := NewChromeSink(2)
	c.Emit(Event{T: 10, Proc: 0, Cat: Protocol, Name: "LOCALFILL", Kind: ObjPage, ID: 3, Detail: `mode="x"`})
	c.Emit(Event{T: 20, Proc: -1, Cat: Transport, Name: "DROP", Detail: "seq=1"})
	c.Emit(Event{T: 30, Proc: 1, Cat: Sync, Name: "GRANT", Kind: ObjLock, ID: 2, Dur: 400})
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 proc tracks + 4 engine tracks of metadata, then 3 events.
	if len(doc.TraceEvents) != 2+int(NumCats)+3 {
		t.Fatalf("got %d trace events", len(doc.TraceEvents))
	}
	last := doc.TraceEvents[len(doc.TraceEvents)-1]
	if last["ph"] != "X" || last["dur"] != float64(400) || last["tid"] != float64(1) {
		t.Fatalf("span event wrong: %v", last)
	}
	drop := doc.TraceEvents[len(doc.TraceEvents)-2]
	// Proc=-1 transport event lands on the transport engine track.
	if drop["tid"] != float64(2+int(Transport)) || drop["ph"] != "i" {
		t.Fatalf("engine-track event wrong: %v", drop)
	}
}

func TestChromeSinkDeterministic(t *testing.T) {
	render := func() string {
		c := NewChromeSink(1)
		for i := 0; i < 5; i++ {
			c.Emit(Event{T: sim.Time(i * 10), Proc: 0, Cat: Protocol, Name: "E", Kind: ObjPage, ID: int64(i)})
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("chrome output not deterministic")
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	ts := NewTextSink(&buf)
	ts.Emit(Event{T: 5, Name: "X"})
	ts.Emit(Event{T: 6, Name: "Y", Kind: ObjPage, ID: 2})
	if ts.Count != 2 {
		t.Fatalf("count = %d", ts.Count)
	}
	if got, want := buf.String(), "t=5 X\nt=6 page=2 Y\n"; got != want {
		t.Fatalf("text output = %q, want %q", got, want)
	}
}

func TestObserverProfilerLifecycle(t *testing.T) {
	o := New()
	off := NewProfiler(2, 4, o)
	if o.Profiler() != nil {
		t.Fatal("store published without EnableProfiling")
	}
	// With profiling off, object contexts do not switch rows.
	if k, _ := off.SetContext(0, ObjPage, 9); k != ObjNone {
		t.Fatalf("previous context = %v", k)
	}
	off.Charge(0, 2, 11)
	if k, id := off.Context(0); k != ObjNone || id != 0 {
		t.Fatalf("context switched with profiling off: %v/%d", k, id)
	}
	if s := off.Samples(); len(s) != 1 || s[0].Key != (ProfKey{Proc: 0, Comp: 2, Kind: ObjNone}) {
		t.Fatalf("samples with profiling off: %+v", s)
	}

	o.EnableProfiling()
	p := NewProfiler(2, 4, o)
	if o.Profiler() != p {
		t.Fatal("store not published with profiling on")
	}
	if NewProfiler(8, 8, o); o.Profiler() != p {
		t.Fatal("second store replaced the first")
	}
}

// TestMetricHotPathZeroAllocs pins the //mgs:noalloc contract of the
// counting paths every simulated event may hit.
func TestMetricHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	h := r.Histogram("wait", nil)
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		_ = c.Value()
		h.Observe(250)
		h.Observe(5_000_000) // overflow bucket
	})
	if allocs != 0 {
		t.Errorf("metric hot path allocated %.1f times per op, want 0", allocs)
	}
}
