// Package algo holds the synchronization algorithms: lock and barrier
// protocols expressed purely as message sequences over the MGS
// interconnect, selected by name through harness.WithLockAlgo /
// WithBarrierAlgo (or the -lock / -barrier flags of every tool). The
// paper's own primitives, the token lock and the two-level tree barrier
// (§3.2), are the defaults; the rest of the zoo (ticket, MCS and
// tournament locks; sense-reversing, dissemination, MCS-tree and
// tournament barriers) runs under the same contract.
//
// An algorithm never touches the memory system directly. msync.System
// wraps every lock/barrier in a shim that runs the release-consistency
// protocol actions (ReleaseAll before a release or barrier arrival,
// AcquireSync after a grant or barrier exit) and the profiler
// attribution, so an implementation here is only the ordering protocol:
// who sends what to whom, who parks, who wakes. Every message is a real
// msg.Network send — it pays interconnect latency on every topology,
// rides the reliable transport under fault injection, and is a labeled
// delivery the model checker can reorder.
//
// Cycle-charging rules (shared by every algorithm):
//
//   - a processor-context operation charges Env.LockOp/BarrierOp to its
//     category, plus Env.SendCost for each message the processor sends;
//   - handler-context sends are free to the processor (the handler's
//     work cycles are charged to the MGS category at the receiver);
//   - parked time is charged to the category on wake and observed into
//     the lock.waitcycles / barrier.waitcycles histograms via
//     Env.LockWaited / Env.BarrierWaited;
//   - critical-section occupancy feeds Env.CountCS at release;
//   - trace emission costs nothing simulated and is guarded by
//     Env.Tracing, so an untraced run never builds the variadic
//     arguments.
//
// Every lock and barrier instance belongs to one machine and is not
// safe for concurrent use: its state, hit counts included, is plain
// fields touched only by that machine's engine.
package algo

import "mgs/internal/sim"

// Env is the toolkit msync hands an algorithm: machine shape, cost
// table, tagged message sends, and the accounting hooks that feed the
// shared lock/barrier statistics, histograms, and trace stream.
type Env interface {
	// Shape.
	NProcs() int
	NSSMP() int
	ClusterSize() int
	SSMPOf(proc int) int
	// RepProc is the processor that runs SSMP-side handlers for object
	// id in SSMP s (spread across the SSMP's processors by id).
	RepProc(s, id int) int

	// Cost table.
	LockOp() sim.Time
	BarrierOp() sim.Time
	TokenWork() sim.Time
	SendCost() sim.Time

	// Send delivers a 32-byte control message from processor from to
	// processor to, no earlier than when, and runs fn as a handler
	// charged work cycles at the receiver. kind/id/aux label the
	// delivery as a model-checker choice point; the label is inert
	// outside the checker.
	Send(kind string, id, from, to int, when sim.Time, aux int64, work sim.Time, fn func(at sim.Time))

	// Accounting.
	ChargeLock(p *sim.Proc, cycles sim.Time)
	ChargeBarrier(p *sim.Proc, cycles sim.Time)
	// LockWaited / BarrierWaited charge parked time and feed the wait
	// histograms; call once per park, after the wake.
	LockWaited(p *sim.Proc, waited sim.Time)
	BarrierWaited(p *sim.Proc, waited sim.Time)
	// CountCS records one critical section of the given occupancy.
	CountCS(held sim.Time)

	// Handoff wakes the parked processor to from the running processor
	// from of the same SSMP: an engine event scheduled d cycles after
	// from's clock. The wake time is from's clock plus d as
	// read when the event runs, so a releaser that ran ahead in the
	// meantime delays the waiter's wake to match.
	Handoff(from, to *sim.Proc, d sim.Time)

	// Trace emission (no simulated cost). Tracing reports whether a sink
	// is attached; call the emitters only when it is.
	Tracing() bool
	EmitLock(at sim.Time, proc, id int, name, format string, args ...any)
	EmitBarrier(at sim.Time, proc, id int, name, format string, args ...any)
}

// Lock is one lock instance: the contract Ctx.Acquire/Release dispatch
// through. Acquire returns holding the lock; Release never blocks.
type Lock interface {
	Acquire(p *sim.Proc)
	Release(p *sim.Proc)
	// Stats reports hit/total acquire counts (Figure 11): a hit is an
	// acquire granted without inter-SSMP communication.
	Stats() (hits, total int64)
	// Dump renders the protocol state deterministically (deadlock
	// diagnosis; the model checker folds the text into its state hash).
	Dump(f func(format string, args ...any))
	// Quiescent reports an error unless the lock is idle: nobody holds
	// or waits, no protocol message is outstanding.
	Quiescent() error
}

// Barrier is one barrier instance: Arrive returns after every
// processor has arrived.
type Barrier interface {
	Arrive(p *sim.Proc)
	Episodes() int64
	// Dump and Quiescent are as for Lock: idle means no partial episode
	// and no waiter parked.
	Dump(f func(format string, args ...any))
	Quiescent() error
}

// LockAlgo builds lock instances. Name is the -lock flag spelling.
type LockAlgo interface {
	Name() string
	NewLock(env Env, id, home int) Lock
}

// BarrierAlgo builds barrier instances. Name is the -barrier spelling.
type BarrierAlgo interface {
	Name() string
	NewBarrier(env Env, id, home int) Barrier
}

// DefaultLock and DefaultBarrier name the paper's primitives, which
// the empty name also selects.
const (
	DefaultLock    = "token"
	DefaultBarrier = "tree"
)

// The registries are sorted literal slices, not maps, so every listing
// is deterministic without an iteration-order laundering step.
var (
	lockAlgos    = []LockAlgo{MCS{}, Ticket{}, Token{}, Tournament{}}
	barrierAlgos = []BarrierAlgo{Dissemination{}, MCSTree{}, Sense{}, TournamentBarrier{}, Tree{}}
)

// LockByName resolves a -lock selection.
func LockByName(name string) (LockAlgo, error) {
	if name == "" {
		name = DefaultLock
	}
	for _, a := range lockAlgos {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, &UnknownError{Kind: "lock", Name: name, Known: LockNames()}
}

// BarrierByName resolves a -barrier selection.
func BarrierByName(name string) (BarrierAlgo, error) {
	if name == "" {
		name = DefaultBarrier
	}
	for _, a := range barrierAlgos {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, &UnknownError{Kind: "barrier", Name: name, Known: BarrierNames()}
}

// LockNames lists every lock algorithm, sorted.
func LockNames() []string {
	var names []string
	for _, a := range lockAlgos {
		names = append(names, a.Name())
	}
	return names
}

// BarrierNames lists every barrier algorithm, sorted.
func BarrierNames() []string {
	var names []string
	for _, a := range barrierAlgos {
		names = append(names, a.Name())
	}
	return names
}

// UnknownError reports a name that resolves to no registered algorithm.
type UnknownError struct {
	Kind  string // "lock" or "barrier"
	Name  string
	Known []string
}

func (e *UnknownError) Error() string {
	s := "unknown " + e.Kind + " algorithm " + e.Name + " (have"
	for _, n := range e.Known {
		s += " " + n
	}
	return s + ")"
}
