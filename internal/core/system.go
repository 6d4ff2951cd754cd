// Package core implements the MGS multigrain shared-memory protocol —
// the paper's primary contribution (§3, Figure 4, Tables 1–2).
//
// Three software engines cooperate:
//
//   - The Local Client runs on a faulting processor. It fills software
//     TLBs from SSMP-local page tables (transition 1), drives upgrades
//     from read to write privilege (transition 2), and negotiates with
//     the Server for page replication when the SSMP has no copy
//     (transitions 5–7). Page-table state is protected by a per-page
//     shared-memory lock.
//
//   - The Remote Client runs on the processor owning an SSMP's copy of a
//     page. It services invalidations: page cleaning (global coherence
//     before DMA, §4.2.4), TLB shootdowns (PINV/PINV_ACK), diff
//     computation against the twin, and the single-writer optimization.
//
//   - The Server runs on the page's home processor. It tracks read and
//     write copies per SSMP (read_dir/write_dir), serves RREQ/WREQ,
//     and performs eager release: on REL it invalidates every copy,
//     collects ACK/DIFF/1WDATA replies, merges diffs into the home
//     frame, and answers queued requests and releases.
//
// Consistency is eager release consistency with multiple writers
// (Munin-style twin/diff). Two deliberate deviations from the published
// transition table, both required for correctness, are marked in the
// code: (1) the releasing processor drops the page-table lock before
// waiting for the RACK, since the release round invalidates the
// releaser's own SSMP and the invalidation handler takes that same
// lock; (2) after a single-writer release the retained write copy stays
// registered in write_dir, so a later release still invalidates it —
// the printed table clears write_dir, which would strand a stale copy.
//
// Extensions beyond the paper, each behind a Costs flag and off by
// default: update-based release rounds (Costs.UpdateProtocol), dynamic
// home migration (Costs.MigrateAfter), and lazy release consistency
// (Costs.LazyRelease, lazy.go).
package core

import (
	"fmt"
	"sort"

	"mgs/internal/cache"
	"mgs/internal/mem"
	"mgs/internal/msg"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// PageState is the Local Client's page state within one SSMP.
type PageState uint8

const (
	// PInv: the SSMP holds no copy.
	PInv PageState = iota
	// PRead: the SSMP holds a read-only copy.
	PRead
	// PWrite: the SSMP holds a read-write copy (twinned).
	PWrite
	// PBusy: a replication request is outstanding.
	PBusy
)

var pageStateNames = [...]string{"INV", "READ", "WRITE", "BUSY"}

func (s PageState) String() string { return pageStateNames[s] }

// serverState is the Server's state for one page.
type serverState uint8

const (
	sRead  serverState = iota // only read copies outstanding
	sWrite                    // at least one write copy outstanding
	sRel                      // release in progress
)

// Config sizes a System.
type Config struct {
	NProcs      int // total processors (P)
	ClusterSize int // processors per SSMP (C)
	PageSize    int // bytes
	TLBSize     int // software TLB entries per processor
	Costs       Costs
	CacheParams cache.Params
	CacheCosts  cache.Costs
	// Disabled turns the software layer off (the paper's "null MGS
	// calls" 32-processor runs): every page is mapped locally on first
	// touch at plain-SVM cost and releases are no-ops. Normally set
	// only when ClusterSize == NProcs.
	Disabled bool
}

// clientPage is the Local/Remote Client state for one page in one SSMP.
type clientPage struct {
	page      vm.Page
	ssmp      int
	state     PageState
	frame     *mem.Frame
	dir       *cache.Dir
	twin      []byte
	tlbDir    uint64 // within-SSMP processors holding a TLB mapping
	ownerProc int    // global proc owning this SSMP's copy (first touch); -1 until placed
	lk        ptLock
	version   int64 // home version this copy reflects (lazy release only)
	gen       int64 // incarnation counter, bumped at teardown (lazy versioning)

	// capturedRound is the server round that last captured this copy's
	// modifications (finishInv), carried by this SSMP's next REL so the
	// home can tell a release whose data the running round already
	// collected from one it has not. Written and read only on the
	// copy's own SSMP; the value travels to the home in the REL
	// message, never by a cross-SSMP read.
	capturedRound int64

	// Lazy-release bookkeeping: diff-carrying RELs of this copy's data
	// still in flight, and releases waiting for them to reach the home
	// (the lazy counterpart of eager's RELWAIT).
	relInFlight int
	relWaiters  []*sim.Proc

	invCount int  // outstanding PINV_ACKs
	invOneW  bool // current invalidation is a 1WINV
}

// accEntry caches one processor's last successful translation.
type accEntry struct {
	page vm.Page
	priv vm.Priv
	cp   *clientPage
	gen  uint64 // TLB generation the entry was filled at
}

// invTarget is one SSMP to invalidate in a release round.
type invTarget struct {
	ssmp int
	oneW bool
}

// pendingReq is a replication request queued behind a release.
type pendingReq struct {
	proc  int
	write bool
	cp    *clientPage // the requester's page record, captured at REQ time
}

// String elides the page-record pointer: pendingReq values appear in
// trace output, which must be identical across runs of one seed.
func (q pendingReq) String() string {
	return fmt.Sprintf("{%d %v}", q.proc, q.write)
}

// remoteCopy is the Server's home-side record of one SSMP's copy: the
// client page record and owning processor (captured when the copy is
// served, so invalidations address the Remote Client without reading
// the remote SSMP's state), and the count of torn-down incarnations
// whose teardown replies have reached the home (the WNOTIFY staleness
// check — see onUpgrade). Records live in serverPage.rmt, a sparse
// sorted list holding only the SSMPs actually served (dirset.go).
type remoteCopy struct {
	ssmp  int32 // the SSMP this record describes
	cp    *clientPage
	owner int32 // global proc owning the SSMP's copy; -1 until first served
	gens  int64 // teardown replies received from this SSMP
}

// serverPage is the Server state for one page at its home.
type serverPage struct {
	page     vm.Page
	homeProc int
	frame    *mem.Frame // the physical home copy
	state    serverState
	readDir  dirSet // SSMPs with read copies (exact or coarse — dirset.go)
	writeDir dirSet // SSMPs with write copies

	version     int64       // merges applied to the home frame (lazy release only)
	lastReq     int         // last remote SSMP served (migration tracking)
	streak      int         // consecutive serves to lastReq
	count       int         // outstanding invalidation replies
	refreshing  int         // outstanding refresh ACKs (update protocol)
	refreshDone bool        // this round's refresh phase already ran
	invQueue    []invTarget // targets not yet invalidated (serial mode)
	keepWriter  int         // SSMP retaining its copy (single-writer opt), or -1
	sawDiff     bool        // foreign data merged during this round
	homeDirty   bool        // home-SSMP in-place writes since the last round
	round       int64        // release rounds opened; the current round's id while state == sRel
	rmt         []remoteCopy // sparse, sorted by ssmp; rmtGet/rmtEnsure
	pendReRel   []int // releases that must run as a fresh round
	pendReq     []pendingReq
	pendRel     []int // processors awaiting RACK
}

// System is one DSSMP's multigrain shared memory.
type System struct {
	eng   *sim.Engine
	cfg   Config
	net   *msg.Network
	space *vm.Space
	st    *stats.Collector
	procs []*sim.Proc

	tlbs  []*vm.TLB
	ssmps []*ssmpState

	// Hierarchical directory sizing (dirset.go): exact entries per page
	// before the coarse collapse, and SSMPs per coarse cluster bit.
	dirThresh int
	dirGrain  int

	// acc is the per-processor last-translation micro-cache: the result
	// of the last successful TLB lookup, revalidated against the TLB
	// generation so any shootdown, fill, or privilege change drops it.
	// It removes both the TLB probe and the SSMP page-map lookup from
	// the common case of consecutive accesses to one page.
	acc []accEntry

	// Obs is the observability spine. Nil (or an observer with no
	// sinks) keeps the trace path structurally detached: emitPage
	// checks Tracing() before any event is built.
	Obs *obs.Observer
	// DebugChecks enables extra invariant checking on hot paths (tests).
	DebugChecks bool
}

// emitPage publishes one protocol event about a page. Detail formatting
// happens only when a sink is attached; emission charges no simulated
// cycles.
func (s *System) emitPage(t sim.Time, proc int, v vm.Page, name, format string, args ...any) {
	if !s.Obs.Tracing() {
		return
	}
	var detail string
	if format != "" {
		detail = fmt.Sprintf(format, args...)
	}
	s.Obs.Emit(obs.Event{
		T: t, Proc: proc, Cat: obs.Protocol, Name: name,
		Kind: obs.ObjPage, ID: int64(v), Detail: detail,
	})
}

// emitPageArgs is emitPage with structured Args attached — the protocol
// facts the model checker's refinement spec consumes (internal/check).
func (s *System) emitPageArgs(t sim.Time, proc int, v vm.Page, name string, args [3]int64, format string, fa ...any) {
	if !s.Obs.Tracing() {
		return
	}
	var detail string
	if format != "" {
		detail = fmt.Sprintf(format, fa...)
	}
	s.Obs.Emit(obs.Event{
		T: t, Proc: proc, Cat: obs.Protocol, Name: name,
		Kind: obs.ObjPage, ID: int64(v), Args: args, Detail: detail,
	})
}

// emitProc publishes one protocol event not tied to a page.
func (s *System) emitProc(t sim.Time, proc int, name, format string, args ...any) {
	if !s.Obs.Tracing() {
		return
	}
	var detail string
	if format != "" {
		detail = fmt.Sprintf(format, args...)
	}
	s.Obs.Emit(obs.Event{T: t, Proc: proc, Cat: obs.Protocol, Name: name, Detail: detail})
}

// emitEngine publishes one software-engine handshake event: a Local
// Client invocation (a span covering the whole fault, emitted at
// completion but timestamped at entry, so Chrome renders it as a
// duration bar on the faulting processor's track), or a Remote Client /
// Server engine dispatch (instants on the engine track, proc -1).
func (s *System) emitEngine(t sim.Time, proc int, v vm.Page, name string, dur sim.Time, format string, args ...any) {
	if !s.Obs.Tracing() {
		return
	}
	var detail string
	if format != "" {
		detail = fmt.Sprintf(format, args...)
	}
	s.Obs.Emit(obs.Event{
		T: t, Proc: proc, Cat: obs.Engine, Name: name,
		Kind: obs.ObjPage, ID: int64(v), Dur: dur, Detail: detail,
	})
}

// ssmpState is the per-SSMP software state. Everything here — client
// pages, the Server records of pages homed on this SSMP, the frame
// allocator — is touched only by events executing on this SSMP: SSMPs
// share no memory, so cross-SSMP state moves only in messages.
type ssmpState struct {
	id      int
	domain  *cache.Domain
	pages   pageArena[clientPage]
	servers pageArena[serverPage] // pages homed on this SSMP
	frames  *mem.FrameAllocator   // this SSMP's physical frame region
	duqs    []*duq                // one per local processor
}

// New wires a System over an engine, network, address space, stats
// collector, and the machine's processors (procs[i].ID must be i).
func New(eng *sim.Engine, net *msg.Network, space *vm.Space, st *stats.Collector, procs []*sim.Proc, cfg Config) *System {
	if cfg.NProcs%cfg.ClusterSize != 0 {
		panic(fmt.Sprintf("core: P=%d not divisible by C=%d", cfg.NProcs, cfg.ClusterSize))
	}
	s := &System{
		eng: eng, cfg: cfg, net: net, space: space, st: st, procs: procs,
		tlbs: make([]*vm.TLB, cfg.NProcs),
		acc:  make([]accEntry, cfg.NProcs),
	}
	nssmp := cfg.NProcs / cfg.ClusterSize
	s.dirThresh = cfg.Costs.DirThreshold
	if s.dirThresh <= 0 {
		s.dirThresh = 64
	}
	s.dirGrain = (nssmp + 63) / 64
	for i := 0; i < cfg.NProcs; i++ {
		s.tlbs[i] = vm.NewTLB(cfg.TLBSize)
	}
	for i := 0; i < nssmp; i++ {
		ss := &ssmpState{
			id:     i,
			domain: cache.NewDomain(cfg.ClusterSize, cfg.PageSize, cfg.CacheParams, cfg.CacheCosts),
			// Disjoint frame-ID regions (2^40 IDs each) keep frame tags
			// machine-wide unique with no cross-SSMP coordination.
			frames: mem.NewFrameAllocatorAt(uint64(i)<<40, cfg.PageSize),
			duqs:   make([]*duq, cfg.ClusterSize),
		}
		for j := range ss.duqs {
			ss.duqs[j] = newDUQ()
		}
		s.ssmps = append(s.ssmps, ss)
	}
	reg, tlbs := st.Registry(), s.tlbs
	reg.Gauge("tlb.fills", func() int64 {
		var n int64
		for _, t := range tlbs {
			n += t.Fills
		}
		return n
	})
	reg.Gauge("tlb.evictions", func() int64 {
		var n int64
		for _, t := range tlbs {
			n += t.Evictions
		}
		return n
	})
	reg.Gauge("engine.dispatched", eng.Dispatched)
	return s
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Space returns the virtual address space.
func (s *System) Space() *vm.Space { return s.space }

func (s *System) ssmpOf(proc int) int { return proc / s.cfg.ClusterSize }
func (s *System) within(proc int) int { return proc % s.cfg.ClusterSize }

func bit(i int) uint64 { return 1 << uint(i) }

// spend advances p's clock by cycles, attributing them to cat. Handler
// preemption debt folded in by Advance is not re-attributed here: it
// was already charged (as MGS) when the handler ran.
func (s *System) spend(p *sim.Proc, cat stats.Category, cycles sim.Time) {
	p.Advance(cycles)
	s.st.Charge(p.ID, cat, cycles)
}

// parkCharge parks p and attributes the wait to cat.
func (s *System) parkCharge(p *sim.Proc, cat stats.Category) {
	c0 := p.Clock()
	p.Park()
	if s.DebugChecks && p.Clock()-c0 > 100_000 {
		s.emitProc(p.Clock(), p.ID, "LONGPARK", "cat=%v wait=%d", cat, p.Clock()-c0)
	}
	s.st.Charge(p.ID, cat, p.Clock()-c0)
}

// newTwin snapshots f into a page-size buffer drawn from the
// process-wide pool (pool.go); the buffer is fully overwritten here, so
// pooling never leaks state between runs.
func (s *System) newTwin(f *mem.Frame) []byte {
	b := getPageBuf(s.cfg.PageSize)
	copy(b, f.Data)
	return b
}

// retwin refreshes cp's twin to the current frame contents, reusing the
// existing buffer when one is present.
func (s *System) retwin(cp *clientPage) {
	if cp.twin == nil {
		cp.twin = s.newTwin(cp.frame)
		return
	}
	copy(cp.twin, cp.frame.Data)
}

// recycleTwin returns cp's twin buffer (if any) to the pool. Diffs
// never alias twin storage, so a recycled buffer has no live readers.
func (s *System) recycleTwin(cp *clientPage) {
	if cp.twin != nil {
		putPageBuf(cp.twin)
		cp.twin = nil
	}
}

// ensurePage returns (creating if needed) the SSMP's record for page v.
func (ss *ssmpState) ensurePage(v vm.Page) *clientPage {
	cp := ss.pages.get(v)
	if cp == nil {
		cp = &clientPage{page: v, ssmp: ss.id, state: PInv, ownerProc: -1}
		ss.pages.put(v, cp)
	}
	return cp
}

// server returns (creating if needed) the Server record for page v,
// which lives on the home processor's SSMP. The home frame is created
// zeroed. Call it only from the home SSMP's execution context (or
// host-side, outside the run).
func (s *System) server(v vm.Page) *serverPage {
	ss := s.ssmps[s.ssmpOf(s.space.HomeProc(v))]
	sp := ss.servers.get(v)
	if sp == nil {
		// The per-SSMP copy records (rmt) start empty and grow only as
		// SSMPs are actually served — home state is O(sharers), not
		// O(SSMPs) (dirset.go).
		sp = &serverPage{
			page: v, homeProc: s.space.HomeProc(v),
			frame: ss.frames.Alloc(), state: sRead, keepWriter: -1,
		}
		ss.servers.put(v, sp)
	}
	return sp
}

// serverIfExists returns the Server record for page v, or nil if the
// page has never been served. Same SSMP discipline as server.
func (s *System) serverIfExists(v vm.Page) *serverPage {
	return s.ssmps[s.ssmpOf(s.space.HomeProc(v))].servers.get(v)
}

// BackdoorFrame returns the home frame of the page containing va,
// without simulated cost. It is the setup/verification hook: apps
// initialize their data sets and check results through it.
func (s *System) BackdoorFrame(va vm.Addr) (*mem.Frame, int) {
	return s.server(s.space.PageOf(va)).frame, s.space.Offset(va)
}

// BackdoorStore64 writes v at va with no simulated cost.
func (s *System) BackdoorStore64(va vm.Addr, v uint64) {
	f, off := s.BackdoorFrame(va)
	f.Store64(off, v)
}

// BackdoorLoad64 reads va with no simulated cost. It reads the home
// copy, which is current after any release point.
func (s *System) BackdoorLoad64(va vm.Addr) uint64 {
	f, off := s.BackdoorFrame(va)
	return f.Load64(off)
}

// SnapshotMemory returns the contents of the allocated shared address
// space as held by the home frames, page by page in address order, with
// untouched pages reading as zeros. After every processor has passed its
// final release point the home frames are the authoritative image, so
// two runs of one program must snapshot identically no matter what a
// fault plan did to the wire — the invariant cmd/mgs-chaos enforces.
// No simulated cost.
func (s *System) SnapshotMemory() []byte {
	brk := s.space.Brk()
	if brk == 0 {
		return nil
	}
	ps := s.cfg.PageSize
	last := s.space.PageOf(brk - 1)
	out := make([]byte, (int(last)+1)*ps)
	for v := vm.Page(0); v <= last; v++ {
		if sp := s.serverIfExists(v); sp != nil {
			copy(out[int(v)*ps:(int(v)+1)*ps], sp.frame.Data)
		}
	}
	return out
}

// Access performs one simulated shared-memory access by processor p to
// virtual address va. It charges software translation, faults and runs
// the MGS protocol as needed (possibly blocking p), charges the
// hardware coherence cost, and returns the frame and byte offset the
// caller should read or write. pointer selects the more expensive
// pointer-dereference translation sequence.
//
// Fast-path invariant: an access whose translation hits (micro-cache or
// TLB) performs no heap allocation. The micro-cache is purely a host
// optimization — it caches the result the TLB lookup would produce, so
// simulated costs and protocol behavior are identical either way.
func (s *System) Access(p *sim.Proc, va vm.Addr, write, pointer bool) (*mem.Frame, int) {
	page := s.space.PageOf(va)
	off := s.space.Offset(va)
	tc := s.cfg.Costs.TransArray
	if pointer {
		tc = s.cfg.Costs.TransPtr
	}
	ss := s.ssmps[s.ssmpOf(p.ID)]
	tlb := s.tlbs[p.ID]
	ac := &s.acc[p.ID]
	for {
		s.spend(p, stats.User, tc)
		var cp *clientPage
		if ac.cp != nil && ac.page == page && ac.gen == tlb.Gen() &&
			(ac.priv == vm.Write || !write) {
			cp = ac.cp
		} else if priv, ok := tlb.Lookup(page); ok && (priv == vm.Write || !write) {
			cp = ss.pages.get(page)
			*ac = accEntry{page: page, priv: priv, cp: cp, gen: tlb.Gen()}
		}
		if cp != nil {
			cost, _ := ss.domain.Access(s.within(p.ID), cp.frame, cp.dir, off, write)
			s.spend(p, stats.User, cost)
			return cp.frame, off
		}
		s.fault(p, ss, page, write)
	}
}

// Probe reports the Local Client page state of page v in ssmp (tests and
// tools).
func (s *System) Probe(ssmp int, v vm.Page) PageState {
	cp := s.ssmps[ssmp].pages.get(v)
	if cp == nil {
		return PInv
	}
	return cp.state
}

// TLB returns processor p's TLB (tests and tools).
func (s *System) TLB(p int) *vm.TLB { return s.tlbs[p] }

// CacheCounters aggregates the hardware access-class counters across
// all SSMP coherence domains.
func (s *System) CacheCounters() cache.Counters {
	var out cache.Counters
	for _, ss := range s.ssmps {
		for k, v := range ss.domain.Counters.ByKind {
			out.ByKind[k] += v
		}
	}
	return out
}

// DUQLen reports the delayed-update-queue length of processor p.
func (s *System) DUQLen(p int) int {
	return s.ssmps[s.ssmpOf(p)].duqs[s.within(p)].len()
}

// DumpServers prints every server page's round state and every client
// page's lock state that could hold a round up (deadlock diagnosis;
// pages print in sorted order so two dumps of the same state compare
// equal).
func (s *System) DumpServers(f func(format string, args ...any)) {
	var pages []vm.Page
	for _, ss := range s.ssmps {
		ss.servers.each(func(v vm.Page, _ *serverPage) {
			pages = append(pages, v)
		})
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, v := range pages {
		sp := s.serverIfExists(v)
		if sp.state == sRel || len(sp.pendRel) > 0 || len(sp.pendReq) > 0 || sp.count != 0 || len(sp.invQueue) > 0 || sp.refreshing != 0 || len(sp.pendReRel) > 0 {
			f("page=%d state=%d count=%d invQueue=%v keep=%d round=%d pendRel=%v pendReq=%v pendReRel=%v R=%b W=%b",
				v, sp.state, sp.count, sp.invQueue, sp.keepWriter, sp.round, sp.pendRel, sp.pendReq, sp.pendReRel, sp.readDir.mask64(), sp.writeDir.mask64())
		}
	}
	for si, ss := range s.ssmps {
		ss.pages.each(func(v vm.Page, cp *clientPage) {
			if cp.lk.held || len(cp.lk.waiters) > 0 || cp.invCount > 0 {
				f("ssmp=%d page=%d state=%v lkheld=%v lkq=%d invCount=%d", si, v, cp.state, cp.lk.held, len(cp.lk.waiters), cp.invCount)
			}
		})
	}
}
