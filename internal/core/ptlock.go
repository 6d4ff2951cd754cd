package core

import (
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// ptLock is the per-(SSMP, page) shared-memory lock that serializes
// page-table state transitions (the "L" column of Table 1). Tasks
// (simulated processors) spin-wait on it; protocol handlers test it and
// queue a continuation if busy, per the paper's footnote 2, to avoid
// deadlocking the handler.
type ptLock struct {
	held    bool
	waiters []func(at sim.Time) // FIFO; lock is handed over held
}

// lockProc acquires cp's page-table lock from processor context,
// charging the lock operation and any wait time to category cat.
func (s *System) lockProc(cp *clientPage, p *sim.Proc, cat stats.Category) {
	s.spend(p, cat, s.cfg.Costs.PTLockOp)
	if s.DebugChecks {
		s.emitPage(p.Clock(), p.ID, cp.page, "LOCKPROC", "held=%v", cp.lk.held)
	}
	if !cp.lk.held {
		cp.lk.held = true
		return
	}
	c0 := p.Clock()
	cp.lk.waiters = append(cp.lk.waiters, func(at sim.Time) { p.Wake(at) })
	p.Park()
	if s.DebugChecks && p.Clock()-c0 > 100_000 {
		s.emitPage(p.Clock(), p.ID, cp.page, "LONGPTLOCK", "wait=%d", p.Clock()-c0)
	}
	s.st.Charge(p.ID, cat, p.Clock()-c0)
}

// lockHandler acquires cp's lock from handler context: fn runs at time
// at if the lock is free, or later when the lock is handed over.
func (s *System) lockHandler(cp *clientPage, at sim.Time, fn func(at sim.Time)) {
	if !cp.lk.held {
		cp.lk.held = true
		fn(at)
		return
	}
	cp.lk.waiters = append(cp.lk.waiters, fn)
}

// unlock releases cp's lock at time at, handing it to the next waiter if
// any. Callable from processor or handler context.
func (s *System) unlock(cp *clientPage, at sim.Time) {
	if s.DebugChecks {
		s.emitPage(at, -1, cp.page, "UNLOCK", "waiters=%d", len(cp.lk.waiters))
	}
	if !cp.lk.held {
		panic("core: unlock of free page-table lock")
	}
	if len(cp.lk.waiters) == 0 {
		cp.lk.held = false
		return
	}
	next := cp.lk.waiters[0]
	cp.lk.waiters = cp.lk.waiters[1:]
	handoff := at + s.cfg.Costs.PTLockOp
	s.eng.At(handoff, func() { next(handoff) })
}
