package main

import (
	"runtime"
	"sort"
	"time"

	"mgs/internal/core"
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// Layer probes: small loops over one public entry point each, so a
// change to that layer shows a direct number beside the end-to-end one.
// Each probe reports the median of probeReps repetitions.

const probeReps = 7

// probeSink keeps the compiler from discarding probe loop results.
var probeSink int64

// perOp runs body (which performs n operations) probeReps times and
// returns the median nanoseconds and heap allocations per operation.
func perOp(n int, body func(n int)) (ns, allocs float64) {
	nsv := make([]float64, probeReps)
	av := make([]float64, probeReps)
	for r := range nsv {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		body(n)
		nsv[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		runtime.ReadMemStats(&after)
		av[r] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return medianOf(nsv), medianOf(av)
}

// probeSwitch is one processor sleeping one cycle at a time: every
// Sleep schedules a resume event and hands control to the engine and
// back, the coroutine switch every simulated access or sync wait pays.
func probeSwitch(n int) {
	e := sim.NewEngine()
	e.NewProc(0, 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		panic("switch probe: " + err.Error())
	}
	probeSink += e.Dispatched()
}

// probeDispatch is an event that reschedules itself: one heap push, pop
// and call per operation, with no processor involved.
func probeDispatch(n int) {
	e := sim.NewEngine()
	k := 0
	var fn func()
	fn = func() {
		k++
		if k < n {
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	if err := e.Run(); err != nil {
		panic("dispatch probe: " + err.Error())
	}
	probeSink += int64(k)
}

// probeTLB is the hit path of a full 64-entry software TLB.
func probeTLB(n int) {
	tlb := vm.NewTLB(64)
	for p := vm.Page(0); p < 64; p++ {
		tlb.Insert(p, vm.Read)
	}
	var pr vm.Priv
	for i := 0; i < n; i++ {
		v, _ := tlb.Lookup(vm.Page(i & 63))
		pr |= v
	}
	probeSink += int64(pr)
}

// sparsePage is a 1K twin/current pair with one 8-byte write per
// 128-byte stretch, the false-sharing page shape of a release round.
func sparsePage() (twin, cur []byte) {
	twin, cur = make([]byte, 1024), make([]byte, 1024)
	for i := range twin {
		twin[i], cur[i] = byte(i), byte(i)
		if i%128 < 8 {
			cur[i]++
		}
	}
	return twin, cur
}

// probeDiff computes the diff of a sparse page with a warmed buffer.
func probeDiff(n int) {
	twin, cur := sparsePage()
	var buf core.DiffBuf
	buf.Compute(twin, cur)
	k := 0
	for i := 0; i < n; i++ {
		k += buf.Compute(twin, cur).Len()
	}
	probeSink += int64(k)
}

// probes runs every layer probe and returns its per-layer metrics.
func probes() map[string]float64 {
	out := map[string]float64{}
	out["sim.switch_ns"], out["sim.switch_allocs"] = perOp(200_000, probeSwitch)
	out["sim.dispatch_ns"], _ = perOp(1_000_000, probeDispatch)
	out["vm.tlb_lookup_ns"], _ = perOp(10_000_000, probeTLB)
	out["core.diff_ns"], _ = perOp(200_000, probeDiff)
	return out
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
