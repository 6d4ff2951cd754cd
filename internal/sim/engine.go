// Package sim provides a deterministic discrete-event simulation engine
// with cooperatively scheduled processor coroutines.
//
// The engine owns virtual time. Simulated processors (Proc) run real Go
// code as runtime coroutines (iter.Pull): a Proc runs only inside the
// event that resumes it, and switching into it suspends the dispatcher
// until it yields, so exactly one body or event runs at a time per
// dispatcher by construction. Runs are therefore bit-for-bit
// reproducible: there is no reliance on the Go scheduler, wall-clock
// time, or map iteration order anywhere on the simulated path.
//
// Two kinds of activity exist:
//
//   - Events: engine-context callbacks scheduled at absolute virtual
//     times (Engine.At / Engine.After). Events must not block; they are
//     how protocol handlers, message deliveries, and timer expiries run.
//   - Procs: coroutines with a local clock. A Proc advances its clock
//     cheaply for local work (Advance) and yields to the engine only
//     when it must interact with global ordering (Sleep, Park).
//
// Ties in virtual time break by scheduling order, so the simulation is
// a total order over events.
//
// An Engine and everything scheduled on it belong to one simulated
// machine and are driven by one goroutine; none of it is safe for
// concurrent use. Parallelism lives one level up, across independent
// machines (harness.RunIndexed).
package sim

import (
	"fmt"
	"sort"
)

// Time is virtual time in processor clock cycles.
type Time int64

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; call NewEngine.
type Engine struct {
	now        Time
	seq        uint64
	queue      eventQueue
	dispatched int64

	procs   []*Proc
	stopped bool
	stopErr error

	// chooser, when non-nil, arbitrates ready labeled events (model
	// checking; see chooser.go). choiceIdx/choiceBuf are its reusable
	// scratch buffers.
	chooser   Chooser
	choiceIdx []int
	choiceBuf []Choice
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time: the timestamp of the event being
// dispatched, or of the last dispatched event.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run in engine context at absolute time t. If t is
// in the past it runs at the current time (still strictly after all
// already-scheduled events for that time).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.Push(event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Dispatched reports the number of events dispatched so far — an
// engine-activity gauge for the observability spine. Host-side
// bookkeeping only; it never influences virtual time.
func (e *Engine) Dispatched() int64 { return e.dispatched }

// Stop aborts the run after the current event completes. Run returns
// err.
func (e *Engine) Stop(err error) {
	e.stopped = true
	e.stopErr = err
}

// Parallelized always reports false: the engine has a single,
// sequential dispatcher.
//
// Deprecated: kept only because the frozen perfbench module reads it.
func (e *Engine) Parallelized() bool { return false }

// Run dispatches events in time order until the queue drains or Stop is
// called. It returns an error if any Proc is still parked or unfinished
// when the queue drains (a simulated deadlock), with a diagnostic
// listing the stuck processors.
func (e *Engine) Run() error {
	for e.queue.Len() > 0 && !e.stopped {
		ev := e.next()
		// A chooser may dispatch a later-scheduled delivery ahead of an
		// earlier one; virtual time stays monotone (the clamp is a no-op
		// on the nil-chooser path, where ev is always the heap minimum).
		if ev.t > e.now {
			e.now = ev.t
		}
		e.dispatched++
		ev.fn()
	}
	if e.stopped {
		return e.stopErr
	}
	var stuck []string
	for _, p := range e.procs {
		if p.state != stateDone {
			stuck = append(stuck, fmt.Sprintf("proc %d (%s, clock %d)", p.ID, p.state, p.clock))
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock, %d processors stuck: %v", len(stuck), stuck)
	}
	return nil
}
