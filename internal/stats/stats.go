// Package stats attributes simulated cycles to the four runtime
// components the paper's Figures 6–10 and 12 report: User (application
// work, software address translation, and hardware shared-memory
// stalls), Lock, Barrier, and MGS (all software coherence protocol
// time, including fault waits and protocol handler occupancy).
package stats

import (
	"fmt"
	"strings"

	"mgs/internal/obs"
	"mgs/internal/sim"
)

// Category is one runtime component.
type Category uint8

const (
	// User: application cycles, translation, hardware memory stalls.
	User Category = iota
	// Lock: acquiring, holding queues for, and waiting on MGS locks.
	Lock
	// Barrier: executing and waiting in barriers.
	Barrier
	// MGS: software shared-memory protocol processing and fault waits.
	MGS

	// NumCategories is the number of categories.
	NumCategories
)

var categoryNames = [...]string{"User", "Lock", "Barrier", "MGS"}

// String returns the category name used in the paper's figures.
func (c Category) String() string { return categoryNames[c] }

// Collector is a machine's accounting view: cycles per processor and
// category, held in the machine's obs.Profiler cycle store, and named
// event counters in an obs.Registry.
type Collector struct {
	nprocs int
	store  *obs.Profiler
	reg    *obs.Registry
}

// NewCollector returns the collector for a machine of nprocs processors
// watched by o (nil for none). Counters register on o's registry, or on
// a private one when o is nil. The cycle store tracks object contexts
// only when o has profiling enabled (obs.NewProfiler).
func NewCollector(nprocs int, o *obs.Observer) *Collector {
	reg := o.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Collector{
		nprocs: nprocs,
		store:  obs.NewProfiler(nprocs, int(NumCategories), o),
		reg:    reg,
	}
}

// Registry exposes the collector's metrics registry so protocol and
// sync layers can register their own gauges and histograms.
func (c *Collector) Registry() *obs.Registry { return c.reg }

// ProfSet switches processor p's attribution object, returning the
// previous object for restore. With profiling off it changes nothing.
func (c *Collector) ProfSet(p int, kind obs.ObjKind, id int64) (obs.ObjKind, int64) {
	return c.store.SetContext(p, kind, id)
}

// ProfContext returns processor p's current attribution object.
func (c *Collector) ProfContext(p int) (obs.ObjKind, int64) { return c.store.Context(p) }

// Charge adds cycles to processor p's category cat, under p's current
// attribution object.
func (c *Collector) Charge(p int, cat Category, cycles sim.Time) {
	c.store.Charge(p, int(cat), cycles)
}

// Count increments the named event counter.
func (c *Collector) Count(name string, delta int64) { c.reg.Add(name, delta) }

// Counter returns the value of a named counter.
func (c *Collector) Counter(name string) int64 { return c.reg.Counter(name).Value() }

// Counters returns all counters as sorted "name=value" strings.
func (c *Collector) Counters() []string { return c.reg.CounterStrings() }

// Breakdown is the aggregate result of a run.
type Breakdown struct {
	// PerProc[p][cat] is processor p's cycles in cat.
	PerProc [][NumCategories]sim.Time
	// Avg[cat] is the mean over processors.
	Avg [NumCategories]float64
	// Total[cat] sums over processors.
	Total [NumCategories]sim.Time
}

// Breakdown sums the cycle store's rows per processor.
func (c *Collector) Breakdown() Breakdown {
	b := Breakdown{PerProc: make([][NumCategories]sim.Time, c.nprocs)}
	c.store.EachRow(func(proc int, _ obs.ObjKind, _ int64, cycles []sim.Time) {
		for cat, v := range cycles {
			b.PerProc[proc][cat] += v
		}
	})
	n := float64(c.nprocs)
	for _, pb := range b.PerProc {
		for cat := Category(0); cat < NumCategories; cat++ {
			b.Total[cat] += pb[cat]
		}
	}
	for cat := Category(0); cat < NumCategories; cat++ {
		b.Avg[cat] = float64(b.Total[cat]) / n
	}
	return b
}

// AvgTotal returns the mean total busy cycles per processor.
func (b Breakdown) AvgTotal() float64 {
	var s float64
	for _, v := range b.Avg {
		s += v
	}
	return s
}

// String renders the breakdown in one line, components in figure order.
func (b Breakdown) String() string {
	var sb strings.Builder
	for cat := Category(0); cat < NumCategories; cat++ {
		if cat > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%.0f", cat, b.Avg[cat])
	}
	return sb.String()
}
