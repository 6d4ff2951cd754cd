package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventQueueOrdersByTimeThenSeq(t *testing.T) {
	var q eventQueue
	times := []Time{5, 1, 3, 1, 5, 0, 3}
	for i, tm := range times {
		i := i
		q.Push(event{t: tm, seq: uint64(i), fn: nil})
	}
	var got []event
	for q.Len() > 0 {
		got = append(got, q.Pop())
	}
	want := []struct {
		t   Time
		seq uint64
	}{{0, 5}, {1, 1}, {1, 3}, {3, 2}, {3, 6}, {5, 0}, {5, 4}}
	for i, w := range want {
		if got[i].t != w.t || got[i].seq != w.seq {
			t.Fatalf("pop %d: got (t=%d seq=%d), want (t=%d seq=%d)", i, got[i].t, got[i].seq, w.t, w.seq)
		}
	}
}

// Pop must zero the vacated tail slot: the slot keeps its backing array
// position alive, and a stale fn closure there pins everything the
// closure captured (procs, pages, buffers) for the life of the queue.
func TestEventQueuePopClearsTailSlot(t *testing.T) {
	var q eventQueue
	for i := 0; i < 4; i++ {
		q.Push(event{t: Time(i), seq: uint64(i), fn: func() {}})
	}
	for q.Len() > 0 {
		n := q.Len() - 1
		q.Pop()
		if got := q.ev[:n+1][n]; got.fn != nil || got.t != 0 || got.seq != 0 {
			t.Fatalf("vacated slot %d not cleared: %+v", n, got)
		}
	}
}

func TestEventQueuePropertySorted(t *testing.T) {
	f := func(raw []int16) bool {
		var q eventQueue
		for i, v := range raw {
			q.Push(event{t: Time(v), seq: uint64(i)})
		}
		prev := event{t: -1 << 62}
		for q.Len() > 0 {
			e := q.Pop()
			if e.t < prev.t || (e.t == prev.t && e.seq < prev.seq) {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	for _, d := range []Time{30, 10, 20, 10} {
		d := d
		e.At(d, func() { order = append(order, d) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 10, 20, 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEventCanScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			e.After(7, step)
		}
	}
	e.At(0, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 || e.Now() != 28 {
		t.Fatalf("count=%d now=%d, want 5, 28", count, e.Now())
	}
}

func TestPastEventClampsToNow(t *testing.T) {
	e := NewEngine()
	var ran Time = -1
	e.At(100, func() {
		e.At(50, func() { ran = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("past event ran at %d, want clamped to 100", ran)
	}
}

func TestProcAdvanceAndSleep(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.NewProc(0, 0, func(p *Proc) {
		p.Advance(5)
		trace = append(trace, fmt.Sprintf("a@%d", p.Clock()))
		p.Sleep(10)
		trace = append(trace, fmt.Sprintf("b@%d", p.Clock()))
	})
	e.At(7, func() { trace = append(trace, "ev@7") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@5", "ev@7", "b@15"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestTwoProcsInterleaveByClock(t *testing.T) {
	e := NewEngine()
	var order []int
	mk := func(id int, step Time) {
		e.NewProc(id, 0, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(step)
				order = append(order, id)
			}
		})
	}
	mk(1, 10) // wakes at 10,20,30
	mk(2, 4)  // wakes at 4,8,12
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 1, 2, 1, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var woke Time
	p := e.NewProc(0, 0, func(p *Proc) {
		p.Advance(3)
		p.Park()
		woke = p.Clock()
	})
	e.At(50, func() { p.Wake(60) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 60 {
		t.Fatalf("woke at %d, want 60", woke)
	}
}

func TestWakeEarlierThanClockKeepsClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	p := e.NewProc(0, 0, func(p *Proc) {
		p.Advance(100)
		p.Park()
		woke = p.Clock()
	})
	e.At(1, func() { p.Wake(5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 100 {
		t.Fatalf("woke at %d, want clock preserved at 100", woke)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.NewProc(0, 0, func(p *Proc) { p.Park() })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	sentinel := errors.New("stopped")
	ran := 0
	e.At(1, func() { ran++; e.Stop(sentinel) })
	e.At(2, func() { ran++ })
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (second event must not run)", ran)
	}
}

func TestDebtFoldsIntoAdvance(t *testing.T) {
	e := NewEngine()
	var after Time
	p := e.NewProc(0, 0, func(p *Proc) {
		p.Sleep(10)
		charged := p.Advance(5)
		if charged != 5+7 {
			t.Errorf("charged = %d, want 12", charged)
		}
		after = p.Clock()
	})
	e.At(3, func() { p.AddDebt(7) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after != 22 {
		t.Fatalf("clock = %d, want 22", after)
	}
}

func TestHandlerStartSerializes(t *testing.T) {
	e := NewEngine()
	p := e.NewProc(0, 0, func(p *Proc) {})
	s1 := p.HandlerStart(10, 5)
	s2 := p.HandlerStart(12, 5)
	s3 := p.HandlerStart(30, 5)
	if s1 != 10 || s2 != 15 || s3 != 30 {
		t.Fatalf("starts = %d,%d,%d, want 10,15,30", s1, s2, s3)
	}
	if p.BusyUntil() != 35 {
		t.Fatalf("busyUntil = %d, want 35", p.BusyUntil())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism runs a randomized workload twice with the same seed
// and requires identical traces: same wake order, same final clocks.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace []string
		nprocs := 8
		for id := 0; id < nprocs; id++ {
			id := id
			steps := make([]Time, 50)
			for i := range steps {
				steps[i] = Time(rng.Intn(20) + 1)
			}
			e.NewProc(id, 0, func(p *Proc) {
				for _, s := range steps {
					p.Sleep(s)
					trace = append(trace, fmt.Sprintf("%d@%d", id, p.Clock()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a := runOnce(42)
	b := runOnce(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestManyProcsAllFinish exercises the coroutine switch at a larger scale.
func TestManyProcsAllFinish(t *testing.T) {
	e := NewEngine()
	finished := make([]bool, 64)
	for id := 0; id < 64; id++ {
		id := id
		e.NewProc(id, Time(id), func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(Time(1 + id%3))
			}
			finished[id] = true
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for id, ok := range finished {
		if !ok {
			t.Fatalf("proc %d did not finish", id)
		}
	}
}

// TestParkWakeChain: a ring of processors where each wakes the next,
// verifying Park/Wake pairs compose.
func TestParkWakeChain(t *testing.T) {
	e := NewEngine()
	const n = 5
	procs := make([]*Proc, n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		procs[i] = e.NewProc(i, 0, func(p *Proc) {
			if i != 0 {
				p.Park()
			}
			order = append(order, i)
			if i+1 < n {
				next := procs[i+1]
				at := p.Clock() + 10
				p.eng.At(p.Clock(), func() { next.Wake(at) })
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) || len(order) != n {
		t.Fatalf("order = %v, want 0..%d in order", order, n-1)
	}
}

// TestProcSleepDoesNotAllocate pins the steady-state cost of a yield:
// Sleep reuses the proc's one resume callback and the event heap's
// grown backing array, so switching out and back in allocates nothing.
func TestProcSleepDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	var allocs float64
	e.NewProc(0, 0, func(p *Proc) {
		p.Sleep(1)
		allocs = testing.AllocsPerRun(1000, func() { p.Sleep(1) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Proc.Sleep allocates %.2f times per call, want 0", allocs)
	}
}

// TestProcPanicReachesRunCaller: a panic in a processor body unwinds
// through the dispatcher to the caller of Run, where it can be
// recovered, instead of killing the process from another goroutine.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	e.NewProc(0, 0, func(p *Proc) {
		p.Sleep(5)
		panic("body failed")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = e.Run()
	}()
	if got != "body failed" {
		t.Fatalf("recovered %v from Run, want the body's panic value", got)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	e.At(0, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.NewProc(0, 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
