// Package msync is the MGS user-level synchronization library (paper
// §3.2): primitives that know the DSSMP hierarchy and contain
// communication within an SSMP whenever possible.
//
// Every lock and barrier runs one algorithm from the msync/algo
// package, chosen machine-wide when the System is built: by default the
// paper's token lock (a local lock per SSMP plus a global token home;
// the token moves only when consecutive acquires come from different
// SSMPs) and two-level tree barrier (local combine, then one COMBINE and
// one RELEASE message per SSMP). The lock hit ratio (acquires needing
// no inter-SSMP communication / all acquires) is the paper's Figure 11
// metric.
//
// System wraps each algorithm's primitive in one shim that makes it a
// release point: the caller's delayed update queue drains through
// core.System.ReleaseAll before a release or barrier arrival — which is
// exactly where the paper's critical-section dilation comes from. Under
// the lazy-release extension the shim makes it an acquire point too:
// every lock grant and barrier exit runs core.System.AcquireSync to
// validate the acquiring SSMP's copies against the home versions. The
// shim also brackets the profiler attribution, so every algorithm pays
// the same coherence costs under the same accounting.
package msync

import (
	"fmt"
	"sort"

	"mgs/internal/core"
	"mgs/internal/msg"
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// Costs parameterizes synchronization overheads, in cycles.
type Costs struct {
	LockOp    sim.Time // local lock manipulation in shared memory
	BarrierOp sim.Time // local barrier counter update
	TokenWork sim.Time // global-lock handler bookkeeping
}

// DefaultCosts returns reasonable hardware-shared-memory costs.
func DefaultCosts() Costs {
	return Costs{LockOp: 60, BarrierOp: 60, TokenWork: 120}
}

// System manages the locks and barriers of one machine. It belongs to
// that machine's engine and is not safe for concurrent use.
type System struct {
	eng   *sim.Engine
	dsm   *core.System
	net   *msg.Network
	st    *stats.Collector
	costs Costs
	p, c  int

	// The algorithms every lock and barrier of this machine runs.
	lockAlgo    algo.LockAlgo
	barrierAlgo algo.BarrierAlgo

	// Primitives are created lazily, on first use.
	locks    map[int]algo.Lock
	barriers map[int]algo.Barrier

	// Obs is the observability spine; nil or sink-less keeps the trace
	// path structurally detached.
	Obs *obs.Observer

	// Wait-time distributions, registered on the collector's registry:
	// cycles parked per lock acquire and per barrier episode.
	lockWait, barrierWait *obs.Histogram
}

// New builds the synchronization system for the machine owning dsm,
// running lock algorithm la and barrier algorithm ba.
func New(eng *sim.Engine, dsm *core.System, net *msg.Network, st *stats.Collector, costs Costs, la algo.LockAlgo, ba algo.BarrierAlgo) *System {
	cfg := dsm.Config()
	m := &System{
		eng: eng, dsm: dsm, net: net, st: st, costs: costs,
		p: cfg.NProcs, c: cfg.ClusterSize, lockAlgo: la, barrierAlgo: ba,
		locks: make(map[int]algo.Lock), barriers: make(map[int]algo.Barrier),
	}
	reg := st.Registry()
	m.lockWait = reg.Histogram("lock.waitcycles", nil)
	m.barrierWait = reg.Histogram("barrier.waitcycles", nil)
	reg.Gauge("lock.hits", func() int64 { h, _ := m.LockStats(); return h })
	reg.Gauge("lock.total", func() int64 { _, t := m.LockStats(); return t })
	return m
}

// emitSync publishes one synchronization event. Detail formatting runs
// only when a sink is attached; emission charges no simulated cycles.
func (m *System) emitSync(t sim.Time, proc int, kind obs.ObjKind, id int, name, format string, args ...any) {
	if !m.Obs.Tracing() {
		return
	}
	var detail string
	if format != "" {
		detail = fmt.Sprintf(format, args...)
	}
	m.Obs.Emit(obs.Event{
		T: t, Proc: proc, Cat: obs.Sync, Name: name,
		Kind: kind, ID: int64(id), Detail: detail,
	})
}

func (m *System) nssmp() int          { return m.p / m.c }
func (m *System) ssmpOf(proc int) int { return proc / m.c }

// repProc is the processor that runs SSMP-side handlers for object id in
// SSMP s — spread across the SSMP's processors by id.
func (m *System) repProc(s, id int) int { return s*m.c + id%m.c }

// Lock returns the lock with the given id, creating it on first use
// with its home at processor id mod P.
func (m *System) Lock(id int) algo.Lock { return m.LockHomed(id, id%m.p) }

// LockHomed returns lock id, creating it with its home on the given
// processor (a lock placed with the data it protects, as the paper's
// per-molecule locks are). The home only takes effect at creation.
func (m *System) LockHomed(id, home int) algo.Lock {
	if l, ok := m.locks[id]; ok {
		return l
	}
	home %= m.p
	l := &algoLock{Lock: m.lockAlgo.NewLock(algoEnv{m}, id, home), m: m, id: id}
	m.locks[id] = l
	return l
}

// Barrier returns the barrier with the given id, creating it on first
// use with its home at processor id mod P.
func (m *System) Barrier(id int) algo.Barrier {
	if b, ok := m.barriers[id]; ok {
		return b
	}
	b := &algoBarrier{Barrier: m.barrierAlgo.NewBarrier(algoEnv{m}, id, id%m.p), m: m, id: id}
	m.barriers[id] = b
	return b
}

// charge advances p and attributes the cycles.
func (m *System) charge(p *sim.Proc, cat stats.Category, cycles sim.Time) {
	p.Advance(cycles)
	m.st.Charge(p.ID, cat, cycles)
}

// DumpState prints every lock's and barrier's state (deadlock
// diagnosis; ids print in sorted order so two dumps of the same state
// compare equal). The model checker also folds this text into its
// state hash, so synchronization state distinguishes interleavings.
func (m *System) DumpState(f func(format string, args ...any)) {
	for _, id := range sortedIDs(m.locks) {
		m.locks[id].Dump(f)
	}
	for _, id := range sortedIDs(m.barriers) {
		m.barriers[id].Dump(f)
	}
}

// Quiescent reports whether every lock and barrier has fully settled:
// no holder, no queued waiter, no protocol message logically in flight.
// The model checker asserts this at the end of every delivery
// interleaving.
func (m *System) Quiescent() error {
	for _, id := range sortedIDs(m.locks) {
		if err := m.locks[id].Quiescent(); err != nil {
			return err
		}
	}
	for _, id := range sortedIDs(m.barriers) {
		if err := m.barriers[id].Quiescent(); err != nil {
			return err
		}
	}
	return nil
}

// sortedIDs returns the map's keys in ascending order, so state walks
// are deterministic.
func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// LockStats aggregates hit/total across the given locks (all locks if
// ids is empty).
func (m *System) LockStats(ids ...int) (hits, total int64) {
	if len(ids) == 0 {
		for _, l := range m.locks {
			h, t := l.Stats()
			hits += h
			total += t
		}
		return hits, total
	}
	for _, id := range ids {
		if l, ok := m.locks[id]; ok {
			h, t := l.Stats()
			hits += h
			total += t
		}
	}
	return hits, total
}
