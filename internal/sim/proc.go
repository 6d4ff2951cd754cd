// iter.Pull needs go1.23; go.mod stays at go 1.22 because the benchmark module (perfbench) pins it.
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// procState describes what a Proc is doing, for deadlock diagnostics.
type procState string

const (
	stateNew     procState = "new"
	stateRunning procState = "running"
	stateSleep   procState = "sleeping"
	stateParked  procState = "parked"
	stateDone    procState = "done"
)

// Proc is a simulated processor: a coroutine with a local virtual clock.
//
// The body function runs as a runtime coroutine (iter.Pull), and only
// while a resume event has switched to it; any call that yields (Sleep,
// Park) switches back to the dispatcher until the next resume event.
// Proc methods other than Wake and AddDebt must only be called from the
// body; Wake and AddDebt are called from engine context (event
// callbacks). A panic in the body propagates out of Engine.Run.
type Proc struct {
	// ID is the processor number, unique within an engine.
	ID int

	eng   *Engine
	clock Time
	debt  Time // handler preemption time owed, folded in on next Advance
	state procState

	yield  func(struct{}) bool // switches from the body back to the resume event that switched in
	resume func()              // switches into the body; built once so yielding allocates nothing

	// busyUntil serializes protocol handlers that run "on" this
	// processor: a handler arriving at time t starts at
	// max(t, busyUntil). Managed by HandlerStart.
	busyUntil Time

	wakeAt Time // valid while parked, once Wake is called
}

// NewProc creates a processor whose body starts executing at time start.
// The body receives the Proc so it can advance its clock and yield.
func (e *Engine) NewProc(id int, start Time, body func(p *Proc)) *Proc {
	p := &Proc{ID: id, eng: e, clock: start, state: stateNew}
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.state = stateRunning
		body(p)
		p.state = stateDone
	})
	p.resume = func() { next() }
	e.procs = append(e.procs, p)
	e.At(start, p.resume)
	return p
}

// Engine returns the engine this processor belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Clock returns the processor's local virtual time. It can run ahead of
// Engine.Now between yields (direct execution).
func (p *Proc) Clock() Time { return p.clock }

// Advance moves the local clock forward by d cycles of local work,
// folding in any interrupt debt accumulated by protocol handlers that
// preempted this processor. It does not yield. It returns the total
// cycles actually charged (d plus debt).
func (p *Proc) Advance(d Time) Time {
	d += p.debt
	p.debt = 0
	p.clock += d
	return d
}

// AddDebt charges d cycles of handler preemption to this processor; the
// charge lands on the next Advance. Safe to call from engine context.
func (p *Proc) AddDebt(d Time) { p.debt += d }

// Parked reports whether the processor is blocked in Park. Handlers use
// this to avoid charging preemption debt to a processor that is idle
// waiting (the wait itself absorbs the handler time).
func (p *Proc) Parked() bool { return p.state == stateParked }

// HandlerStart reserves the processor's protocol-handler resource for a
// handler arriving at time t that takes cost cycles. It returns the time
// the handler begins executing (>= t) and advances busyUntil. Call from
// engine context.
func (p *Proc) HandlerStart(t, cost Time) Time {
	start := t
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.busyUntil = start + cost
	return start
}

// BusyUntil reports when the last scheduled handler on this processor
// finishes.
func (p *Proc) BusyUntil() Time { return p.busyUntil }

// Sleep advances the local clock by d and yields so that other
// processors and events with earlier timestamps run first. Use it for
// long local operations whose duration is known up front.
func (p *Proc) Sleep(d Time) {
	p.clock += d + p.debt
	p.debt = 0
	p.state = stateSleep
	p.eng.At(p.clock, p.resume)
	p.block()
}

// Yield gives the engine a chance to run events scheduled at or before
// the processor's current clock, without advancing the clock.
func (p *Proc) Yield() { p.Sleep(0) }

// Park blocks the processor until some event calls Wake. On return the
// local clock has advanced to at least the wake time. The caller is
// responsible for ensuring a Wake will eventually arrive; the engine
// reports a deadlock otherwise.
func (p *Proc) Park() {
	p.state = stateParked
	p.block()
	if p.wakeAt > p.clock {
		p.clock = p.wakeAt
	}
}

// Wake unparks the processor at time t (or the processor's own clock if
// later). It must be called from engine context, and only while the
// processor is parked.
func (p *Proc) Wake(t Time) {
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: Wake of proc %d in state %s", p.ID, p.state))
	}
	p.wakeAt = t
	p.eng.At(t, p.resume)
}

// block switches from the body back to the dispatcher whose event
// resumed it, and returns when a resume event switches back in.
func (p *Proc) block() {
	p.yield(struct{}{})
	p.state = stateRunning
}
