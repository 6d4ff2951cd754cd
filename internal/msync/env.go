package msync

import (
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// algoEnv adapts System to algo.Env: the machine shape, cost table,
// tagged network sends, and accounting hooks an algorithm programs
// against. Every algorithm message is a real network send, so it pays
// topology latency, rides the reliable transport under fault
// injection, and is a labeled model-checker choice point.
type algoEnv struct{ m *System }

func (e algoEnv) NProcs() int           { return e.m.p }
func (e algoEnv) NSSMP() int            { return e.m.nssmp() }
func (e algoEnv) ClusterSize() int      { return e.m.c }
func (e algoEnv) SSMPOf(proc int) int   { return e.m.ssmpOf(proc) }
func (e algoEnv) RepProc(s, id int) int { return e.m.repProc(s, id) }

func (e algoEnv) LockOp() sim.Time    { return e.m.costs.LockOp }
func (e algoEnv) BarrierOp() sim.Time { return e.m.costs.BarrierOp }
func (e algoEnv) TokenWork() sim.Time { return e.m.costs.TokenWork }
func (e algoEnv) SendCost() sim.Time  { return e.m.net.SendCost() }

func (e algoEnv) Send(kind string, id, from, to int, when sim.Time, aux int64, work sim.Time, fn func(at sim.Time)) {
	e.m.net.SendTagged(sim.Label{Kind: kind, Page: int64(id), Src: from, Dst: to, Aux: aux},
		from, to, when, 32, work, fn)
}

func (e algoEnv) ChargeLock(p *sim.Proc, cycles sim.Time) {
	e.m.charge(p, stats.Lock, cycles)
}

func (e algoEnv) ChargeBarrier(p *sim.Proc, cycles sim.Time) {
	e.m.charge(p, stats.Barrier, cycles)
}

func (e algoEnv) LockWaited(p *sim.Proc, waited sim.Time) {
	e.m.st.Charge(p.ID, stats.Lock, waited)
	if e.m.lockWait != nil {
		e.m.lockWait.Observe(int64(waited))
	}
}

func (e algoEnv) BarrierWaited(p *sim.Proc, waited sim.Time) {
	e.m.st.Charge(p.ID, stats.Barrier, waited)
	if e.m.barrierWait != nil {
		e.m.barrierWait.Observe(int64(waited))
	}
}

func (e algoEnv) CountCS(held sim.Time) {
	e.m.st.Count("lock.heldcycles", int64(held))
	e.m.st.Count("lock.cs", 1)
}

// Handoff wakes the waiter from a separate engine event: the releaser
// calls it from its body, and Proc.Wake runs only in engine context.
// The wake time reads the releaser's clock when that event runs.
func (e algoEnv) Handoff(from, to *sim.Proc, d sim.Time) {
	e.m.eng.At(from.Clock()+d, func() { to.Wake(from.Clock() + d) })
}

func (e algoEnv) Tracing() bool { return e.m.Obs.Tracing() }

func (e algoEnv) EmitLock(at sim.Time, proc, id int, name, format string, args ...any) {
	e.m.emitSync(at, proc, obs.ObjLock, id, name, format, args...)
}

func (e algoEnv) EmitBarrier(at sim.Time, proc, id int, name, format string, args ...any) {
	e.m.emitSync(at, proc, obs.ObjBarrier, id, name, format, args...)
}

// algoLock wraps an algorithm lock with the protocol actions every
// lock shares: the ordering yield, the profiler's per-lock attribution
// window, the release-consistency flush before a release, and the
// acquire-side validation after a grant. Algorithms stay pure ordering
// protocols.
type algoLock struct {
	algo.Lock
	m  *System
	id int
}

// Acquire blocks processor p until it holds the lock. Time spent is
// attributed to the Lock category.
func (l *algoLock) Acquire(p *sim.Proc) {
	m := l.m
	// Synchronization operations are ordering-relevant: yield so every
	// event at or before this processor's clock settles first (and so a
	// spin loop of local acquires cannot starve the engine).
	p.Yield()
	pk, pid := m.st.ProfSet(p.ID, obs.ObjLock, int64(l.id))
	defer m.st.ProfSet(p.ID, pk, pid)
	l.Lock.Acquire(p)
	m.dsm.AcquireSync(p) // lazy-release acquire-side coherence
}

// Release drains the caller's delayed update queue (the release-
// consistency flush — this is where critical sections dilate under
// software coherence) and then lets the algorithm pass the lock on.
func (l *algoLock) Release(p *sim.Proc) {
	m := l.m
	p.Yield()
	pk, pid := m.st.ProfSet(p.ID, obs.ObjLock, int64(l.id))
	defer m.st.ProfSet(p.ID, pk, pid)
	m.dsm.ReleaseAll(p) // release-consistency flush (CS dilation)
	l.Lock.Release(p)
}

// algoBarrier is the barrier-side shim: arrival is a release point
// (drain the delayed update queue first) and exit an acquire point.
type algoBarrier struct {
	algo.Barrier
	m  *System
	id int
}

// Arrive blocks processor p until all processors have arrived.
func (b *algoBarrier) Arrive(p *sim.Proc) {
	m := b.m
	p.Yield() // surface run-ahead before taking part in ordering
	pk, pid := m.st.ProfSet(p.ID, obs.ObjBarrier, int64(b.id))
	defer m.st.ProfSet(p.ID, pk, pid)
	m.dsm.ReleaseAll(p)
	b.Barrier.Arrive(p)
	m.dsm.AcquireSync(p) // a barrier exit is an acquire (lazy release)
}
