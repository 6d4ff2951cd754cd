package sim

import "fmt"

// Windowed parallel event dispatch.
//
// The machine model makes every cross-SSMP interaction pay a fixed
// minimum latency L (the inter-SSMP LAN of paper §4.2.2). That latency
// is a conservative PDES lookahead: an event executing at time t on one
// SSMP cannot schedule anything on another SSMP earlier than t+L. So
// the engine may shard the event heap per SSMP and let worker
// goroutines drain their shards independently up to a shared horizon
//
//	horizon = min(earliest pending event over all shards) + L
//
// without any shard ever missing a cross-shard event: such events land
// at or beyond the horizon by construction and are exchanged at the
// window edge.
//
// Bit-identity. The sequential engine orders events by (time, seq)
// where seq is the global creation counter. Shards executing a window
// concurrently cannot agree on seq live, so each creation gets a
// provisional per-shard seq (all provisional seqs sort after every
// final seq, and same-shard creations keep their relative order — which
// equals the sequential order restricted to that shard, because shards
// are causally independent inside a window). At the window edge a merge
// replays the window's dispatch logs in global (time, seq) order and
// assigns final seqs to every created event exactly as the sequential
// engine would have: a dispatch-log head always has a final seq by the
// time it is compared (its creator, on the same shard, was dispatched
// earlier and therefore merged earlier), and rewriting provisional seqs
// to finals is order-preserving within each shard, so the shard heaps
// stay valid without re-heapifying. Cross-shard creations are routed to
// their destination heaps only after finalization, so every heap
// comparison is between correctly ordered keys. The result: the
// committed dispatch order — and with it every clock, counter, and byte
// of simulated memory — is identical to the sequential run's.

// provisionalBase is the first provisional seq value. Final seqs count
// real event creations and stay far below it.
const provisionalBase uint64 = 1 << 48

// pevent is a scheduled callback in a shard heap. Unlike the sequential
// value-heap's event, it is heap-allocated so the window-edge merge can
// rewrite seq in place while the event sits in a heap or dispatch log.
type pevent struct {
	t   Time
	seq uint64
	fn  func()
	dst *shard
}

// logEntry records one dispatched event and how many events its
// handler created (the kids are contiguous in the shard's kids slice).
type logEntry struct {
	ev    *pevent
	nkids int32
}

// shard is one SSMP's event heap plus its window bookkeeping. Its
// fields are touched only by the worker that owns the shard during a
// window, and only by the coordinator between windows (the barrier
// channels provide the happens-before edges).
type shard struct {
	id   int
	heap pheap
	now  Time

	pseq uint64     // per-shard provisional seq counter
	kids []*pevent  // events created this window, in creation order
	log  []logEntry // events dispatched this window, in dispatch order
	cur  *pevent    // event currently dispatching (StopOn context)

	dispatched int64

	stopped bool
	stopEv  *pevent
	stopErr error
}

// parEngine is the armed parallel-dispatch configuration and, during a
// run, its live state.
type parEngine struct {
	eng         *Engine
	clusterSize int
	workers     int
	lookahead   Time

	active bool
	shards []*shard
	owned  [][]*shard // per worker

	startCh []chan Time
	doneCh  chan struct{}

	// merge scratch, reused across windows
	heads, kidIdx []int
	cross         []*pevent
}

// Parallelize arms windowed parallel dispatch: processors are grouped
// into shards of clusterSize consecutive IDs and advanced by up to
// `workers` goroutines inside conservative windows of `lookahead`
// cycles. Call before Run. Run falls back to the sequential dispatcher
// — bit-identical by construction — whenever the run is ineligible:
// fewer than two shards, fewer than two effective workers, a chooser
// installed, a non-positive lookahead, or any unpinned event.
//
// The caller asserts that lookahead is a true lower bound on the gap
// between any cross-shard schedule and its source context's time;
// message-latency models provide it as the minimum inter-SSMP latency.
func (e *Engine) Parallelize(clusterSize, workers int, lookahead Time) {
	if clusterSize <= 0 || workers <= 1 || lookahead <= 0 {
		e.par = nil
		return
	}
	e.par = &parEngine{eng: e, clusterSize: clusterSize, workers: workers, lookahead: lookahead}
}

// Parallelized reports whether the engine is armed for parallel
// dispatch and the current queue/procs are eligible for it. After Run
// it reports whether the parallel dispatcher was (or would be) used.
func (e *Engine) Parallelized() bool { return e.par != nil && e.par.eligible(e) }

func (par *parEngine) shardOf(procID int) int { return procID / par.clusterSize }

// eligible decides whether this run can use the parallel dispatcher.
func (par *parEngine) eligible(e *Engine) bool {
	if e.chooser != nil || par.lookahead <= 0 || len(e.procs) == 0 {
		return false
	}
	maxID := 0
	for _, p := range e.procs {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	nshards := par.shardOf(maxID) + 1
	if nshards < 2 {
		return false
	}
	w := par.workers
	if w > nshards {
		w = nshards
	}
	if w < 2 {
		return false
	}
	for i := range e.queue.ev {
		if e.queue.ev[i].pin < 0 {
			return false
		}
	}
	return true
}

// schedule inserts an event created in src's shard context, pinned to
// dst's shard. Same-shard events join the heap immediately; cross-shard
// events wait in the creating shard's kids list and are routed at the
// window edge once their final seq is known.
func (par *parEngine) schedule(src, dst *Proc, t Time, fn func()) {
	ss := par.shards[par.shardOf(src.ID)]
	if t < ss.now {
		t = ss.now
	}
	ss.pseq++
	pe := &pevent{t: t, seq: ss.pseq, fn: fn, dst: par.shards[par.shardOf(dst.ID)]}
	ss.kids = append(ss.kids, pe)
	if pe.dst == ss {
		ss.heap.push(pe)
	}
}

// stopOn records a stop request from p's shard context. The earliest
// stop in the final dispatch order wins at the window edge.
func (par *parEngine) stopOn(p *Proc, err error) {
	sh := par.shards[par.shardOf(p.ID)]
	if !sh.stopped {
		sh.stopped = true
		sh.stopEv = sh.cur
		sh.stopErr = err
	}
}

// runParallel is the parallel counterpart of the sequential Run loop.
func (e *Engine) runParallel() error {
	par := e.par
	par.setup(e)
	par.active = true
	for w := range par.startCh {
		w := w
		go par.workerLoop(w) //mgslint:allow nogoroutine -- the parallel dispatcher's worker pool: each worker drains only its own shards inside a window, and the barrier channels order every cross-window access
	}
	for {
		minT, ok := par.minHeapTime()
		if !ok {
			break // every heap drained: the run is complete
		}
		horizon := minT + par.lookahead
		for _, ch := range par.startCh {
			ch <- horizon //mgslint:allow nogoroutine -- window-barrier publish: every worker gets the same horizon before any result is read
		}
		for range par.startCh {
			<-par.doneCh //mgslint:allow nogoroutine -- window-barrier collect: one token per worker; arrival order is irrelevant, the merge below re-establishes (t, seq) order
		}
		par.merge(e)
		if par.resolveStop(e) {
			break
		}
	}
	for _, ch := range par.startCh {
		close(ch) //mgslint:allow nogoroutine -- worker-pool shutdown after the last window; no simulated event remains
	}
	par.active = false
	if e.stopped {
		return e.stopErr
	}
	return e.deadlockCheck()
}

// setup builds the shards, assigns them to workers round-robin, and
// moves the pre-run event queue into the shard heaps (in (t, seq)
// order, so each heap is built sorted).
func (par *parEngine) setup(e *Engine) {
	maxID := 0
	for _, p := range e.procs {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	nshards := par.shardOf(maxID) + 1
	w := par.workers
	if w > nshards {
		w = nshards
	}
	par.shards = make([]*shard, nshards)
	par.owned = make([][]*shard, w)
	for i := range par.shards {
		sh := &shard{id: i, pseq: provisionalBase}
		par.shards[i] = sh
		par.owned[i%w] = append(par.owned[i%w], sh)
	}
	par.startCh = make([]chan Time, w)
	for i := range par.startCh {
		par.startCh[i] = make(chan Time) //mgslint:allow nogoroutine -- window-barrier channel: coordinator publishes the horizon, workers acknowledge on doneCh
	}
	par.doneCh = make(chan struct{}) //mgslint:allow nogoroutine -- window-barrier channel (see startCh)
	par.heads = make([]int, nshards)
	par.kidIdx = make([]int, nshards)
	for e.queue.Len() > 0 {
		ev := e.queue.Pop()
		sh := par.shards[par.shardOf(int(ev.pin))]
		sh.heap.push(&pevent{t: ev.t, seq: ev.seq, fn: ev.fn, dst: sh})
	}
}

// workerLoop drains the worker's shards once per window.
func (par *parEngine) workerLoop(w int) {
	//mgslint:allow nogoroutine -- window-barrier receive: each worker has its own start channel, so no cross-worker ordering exists to leak
	for horizon := range par.startCh[w] {
		for _, sh := range par.owned[w] {
			par.drain(sh, horizon)
		}
		par.doneCh <- struct{}{} //mgslint:allow nogoroutine -- window-barrier acknowledge (see runParallel's collect loop)
	}
}

// drain dispatches sh's events strictly before the horizon, logging
// each dispatch for the window-edge merge.
func (par *parEngine) drain(sh *shard, horizon Time) {
	for !sh.stopped && sh.heap.len() > 0 {
		pe := sh.heap.min()
		if pe.t >= horizon {
			break
		}
		sh.heap.pop()
		if pe.t > sh.now {
			sh.now = pe.t
		}
		sh.dispatched++
		sh.log = append(sh.log, logEntry{ev: pe})
		idx := len(sh.log) - 1
		k0 := len(sh.kids)
		sh.cur = pe
		pe.fn()
		sh.cur = nil
		sh.log[idx].nkids = int32(len(sh.kids) - k0)
	}
}

// minHeapTime returns the earliest pending event time over all shards.
func (par *parEngine) minHeapTime() (Time, bool) {
	var minT Time
	ok := false
	for _, sh := range par.shards {
		if sh.heap.len() == 0 {
			continue
		}
		if t := sh.heap.min().t; !ok || t < minT {
			minT, ok = t, true
		}
	}
	return minT, ok
}

// merge replays the window's dispatch logs in global (t, seq) order,
// assigning final seqs to every event created in the window — exactly
// the seqs the sequential engine would have assigned — then routes
// cross-shard creations to their destination heaps.
func (par *parEngine) merge(e *Engine) {
	for i := range par.heads {
		par.heads[i], par.kidIdx[i] = 0, 0
	}
	for {
		best := -1
		var bestEv *pevent
		for i, sh := range par.shards {
			if par.heads[i] >= len(sh.log) {
				continue
			}
			pe := sh.log[par.heads[i]].ev
			if pe.seq >= provisionalBase {
				panic(fmt.Sprintf("sim: dispatch-log head of shard %d has provisional seq %d", i, pe.seq))
			}
			if best < 0 || pe.t < bestEv.t || (pe.t == bestEv.t && pe.seq < bestEv.seq) {
				best, bestEv = i, pe
			}
		}
		if best < 0 {
			break
		}
		sh := par.shards[best]
		en := sh.log[par.heads[best]]
		for k := int32(0); k < en.nkids; k++ {
			pe := sh.kids[par.kidIdx[best]]
			par.kidIdx[best]++
			e.seq++
			pe.seq = e.seq
			if pe.dst != sh {
				par.cross = append(par.cross, pe)
			}
		}
		par.heads[best]++
	}
	for _, pe := range par.cross {
		pe.dst.heap.push(pe)
	}
	par.cross = par.cross[:0]
	for _, sh := range par.shards {
		e.dispatched += sh.dispatched
		sh.dispatched = 0
		sh.log = sh.log[:0]
		sh.kids = sh.kids[:0]
	}
}

// resolveStop picks the earliest recorded stop in final dispatch order
// and commits it to the engine. Events dispatched after the stopping
// event within its window have already run — their side effects exist,
// unlike in a sequential run — but the returned error is identical, and
// a stopped run's results are not consumed.
func (par *parEngine) resolveStop(e *Engine) bool {
	var win *shard
	for _, sh := range par.shards {
		if !sh.stopped {
			continue
		}
		if win == nil || sh.stopEv.t < win.stopEv.t ||
			(sh.stopEv.t == win.stopEv.t && sh.stopEv.seq < win.stopEv.seq) {
			win = sh
		}
	}
	if win == nil {
		return false
	}
	e.stopped = true
	e.stopErr = win.stopErr
	return true
}

// pheap is a binary min-heap of *pevent ordered by (t, seq) — the
// pointer-based twin of the sequential value heap, so the window-edge
// merge can rewrite seqs of queued events in place.
type pheap struct{ ev []*pevent }

func (q *pheap) len() int     { return len(q.ev) }
func (q *pheap) min() *pevent { return q.ev[0] }
func (q *pheap) push(e *pevent) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

func (q *pheap) pop() *pevent {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = nil // clear so dispatched closures become collectable
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return top
}

func (q *pheap) less(i, j int) bool {
	a, b := q.ev[i], q.ev[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (q *pheap) siftDown(i int) {
	n := len(q.ev)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.ev[i], q.ev[smallest] = q.ev[smallest], q.ev[i]
		i = smallest
	}
}
