package core

import (
	"math/bits"

	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// SSMP discipline. Every handler in this file touches only the state of
// the SSMP it runs on: Server records (serverPage) are home-SSMP state,
// client records (clientPage) are their SSMP's state, and every
// cross-SSMP fact travels inside a message — the requester's page
// record rides the REQ, the capture round rides the REL, teardowns ride
// the invalidation replies. SSMPs share no memory in the real machine,
// and state that crosses SSMPs only in messages is what the model
// checker's delivery reordering refines. Fields that are immutable
// during a run (sp.page, sp.homeProc outside migration, cp.page,
// cp.ssmp) are the only state read across SSMPs.

// onRequest is the Server's RREQ/WREQ handler (arcs 17–19, 22), running
// on the page's home processor.
func (s *System) onRequest(sp *serverPage, cp *clientPage, p *sim.Proc, write bool, at sim.Time) {
	s.emitEngine(at, -1, sp.page, "SERVER", 0, "home %d for proc %d write=%v", sp.homeProc, p.ID, write)
	if sp.state == sRel {
		// Arc 22: queue behind the release in progress.
		sp.pendReq = append(sp.pendReq, pendingReq{proc: p.ID, write: write, cp: cp})
		s.st.Count("req.pended", 1)
		s.emitPageArgs(at, p.ID, sp.page, "REQ", [3]int64{b2i(write), int64(cp.ssmp), 0},
			"from proc %d write=%v PENDED", p.ID, write)
		return
	}
	s.serveData(sp, cp, p, write, at)
}

// serveData registers the requesting SSMP in the directory and ships the
// page (RDAT/WDAT). The home SSMP's own requests map the home frame
// directly, with no data transfer.
func (s *System) serveData(sp *serverPage, cp *clientPage, p *sim.Proc, write bool, at sim.Time) {
	c := &s.cfg.Costs
	r := cp.ssmp
	homeSSMP := s.ssmpOf(sp.homeProc)
	bytes := c.CtrlBytes
	var img []byte
	if r != homeSSMP {
		if r == sp.lastReq {
			sp.streak++
		} else {
			sp.lastReq = r
			sp.streak = 1
		}
		// The home SSMP itself is never registered in the directories:
		// its "copy" is the home frame, kept consistent in place. Only
		// remote copies need invalidating at release.
		if write {
			sp.writeDir.add(r, s.dirThresh, s.dirGrain)
			sp.state = sWrite
			s.st.Count("wdat", 1)
		} else {
			sp.readDir.add(r, s.dirThresh, s.dirGrain)
			s.st.Count("rdat", 1)
		}
		// Record where the SSMP's Remote Client lives so invalidations
		// can be addressed without reading the remote SSMP. The first
		// serve's requester is the copy's permanent first-touch owner
		// (PBusy plus the page-table lock admit one outstanding request
		// per SSMP and page).
		rc := sp.rmtEnsure(r)
		rc.cp = cp
		if rc.owner < 0 {
			rc.owner = int32(p.ID)
		}
		bytes += s.cfg.PageSize
		if write {
			// Twins are made at request time (§3.1.1): the write grant
			// carries the twin image too.
			bytes += s.cfg.PageSize
		}
		// DMA requires global coherence: clean the home SSMP's copy
		// first if its processors have it cached (paper §4.2.4), and
		// shoot down the home SSMP's mappings so its processors' next
		// writes fault and re-enter their delayed update queues — from
		// now on there is a remote copy to keep consistent.
		if hcp := s.ssmps[homeSSMP].pages.get(sp.page); hcp != nil && hcp.frame != nil && hcp.dir != nil {
			s.st.Count("clean.serve", 1)
			at = s.net.Extend(sp.homeProc, at, s.ssmps[homeSSMP].domain.CleanPage(hcp.frame, hcp.dir))
			if hcp.state == PWrite && hcp.tlbDir != 0 {
				n := 0
				for t := hcp.tlbDir; t != 0; t &= t - 1 {
					q := s.ssmpBase(homeSSMP) + bits.TrailingZeros64(t)
					s.tlbs[q].Invalidate(sp.page)
					n++
				}
				hcp.tlbDir = 0
				s.st.Count("home.shootdown", int64(n))
				at = s.net.Extend(sp.homeProc, at, sim.Time(n)*c.PinvWork)
			}
		}
		// The DMA image is captured now, at the home: the copy
		// reflects the home version as of SERVE time, and a merge that
		// lands while the data is on the wire must leave it stale.
		img = getPageBuf(s.cfg.PageSize)
		copy(img, sp.frame.Data)
	} else {
		s.st.Count("rdat.home", 1)
	}
	s.emitPageArgs(at, p.ID, sp.page, "SERVE", [3]int64{b2i(write), int64(r), b2i(r == homeSSMP)},
		"to proc %d (ssmp %d) write=%v dirs R=%b W=%b home=%d", p.ID, r, write, sp.readDir.mask64(), sp.writeDir.mask64(), sp.homeProc)
	servedVer := sp.version
	s.net.SendTagged(sim.Label{Kind: "DATA", Page: int64(sp.page), Src: sp.homeProc, Dst: p.ID, Aux: b2i(write)},
		sp.homeProc, p.ID, at, bytes, 0, func(at2 sim.Time) {
			s.onData(sp, cp, p, write, servedVer, img, at2)
		})
}

// onData is the Local Client's RDAT/WDAT handler (arcs 6–7), running on
// the faulting processor, which still holds the page-table lock. img is
// the serve-time snapshot of the home frame (nil for the home SSMP's
// own requests, which map the home frame directly).
func (s *System) onData(sp *serverPage, cp *clientPage, p *sim.Proc, write bool, servedVer int64, img []byte, at sim.Time) {
	c := &s.cfg.Costs
	ss := s.ssmps[cp.ssmp]
	isHome := cp.ssmp == s.ssmpOf(sp.homeProc)
	if isHome {
		cp.frame = sp.frame
	} else {
		f := ss.frames.Alloc()
		f.CopyFrom(img)
		putPageBuf(img)
		cp.frame = f
	}
	if cp.ownerProc < 0 {
		// First-touch placement; permanent (paper §3.1.2).
		cp.ownerProc = p.ID
	}
	cp.version = servedVer // home version at serve time (lazy mode)
	cp.dir = s.newDir(cp)
	ss.domain.Register(cp.frame, cp.dir)
	at = s.net.Extend(p.ID, at, c.MapPage)
	if write {
		if !isHome {
			at = s.net.Extend(p.ID, at, sim.Time(s.cfg.PageSize)*c.TwinPerByte)
			cp.twin = s.newTwin(cp.frame)
			s.st.Count("twin", 1)
		}
		cp.state = PWrite
		if isHome {
			sp.homeDirty = true
		}
		ss.duqs[s.within(p.ID)].add(cp.page)
	} else {
		cp.state = PRead
	}
	at = s.net.Extend(p.ID, at, c.TLBFill)
	cp.tlbDir = bit(s.within(p.ID))
	priv := vm.Read
	if write {
		priv = vm.Write
	}
	s.emitPageArgs(at, p.ID, cp.page, "DATA", [3]int64{b2i(write), b2i(isHome), 0},
		"at proc %d write=%v", p.ID, write)
	s.insertTLB(ss, p.ID, cp.page, priv)
	s.unlock(cp, at)
	p.Wake(at)
}

// ReleaseAll is the release operation (arcs 8–10): processor p drains
// its delayed update queue, sending one REL per dirty page and waiting
// for the RACK before the next. msync calls this at every lock release
// and barrier arrival; it is what makes the overall model eager release
// consistency.
//
// Whether the release still has data to collect is judged at the home,
// on REL arrival: the REL carries what the releaser knows locally —
// whether its SSMP's copy survives (cond=false) and which release
// round last captured it (capRound) — and the Server combines that
// with its own round state (onRel). The earlier design read the
// Server's state from the releasing processor to skip satisfied
// releases without a message; a real releaser cannot read the home's
// memory, so a satisfied release costs one REL/RACK round trip instead
// of zero messages.
func (s *System) ReleaseAll(p *sim.Proc) {
	if s.cfg.Disabled {
		return
	}
	c := &s.cfg.Costs
	ss := s.ssmps[s.ssmpOf(p.ID)]
	d := ss.duqs[s.within(p.ID)]
	// Attribute each page's release work to that page; restore the
	// caller's context (the lock or barrier driving the release) after.
	pk, pid := s.st.ProfContext(p.ID)
	defer s.st.ProfSet(p.ID, pk, pid)
	if c.LazyRelease {
		s.releaseLazy(p, ss, d)
		return
	}
	for {
		v, ok := d.pop()
		if !ok {
			return
		}
		s.st.ProfSet(p.ID, obs.ObjPage, int64(v))
		cp := ss.pages.get(v)
		s.lockProc(cp, p, stats.MGS)
		// cond: the copy was invalidated since this processor dirtied
		// it, so the data already went home with that capture. The
		// release still synchronizes with the capturing round if it is
		// in flight (other copies are not consistent until the round
		// completes) — the home decides which case holds.
		cond := cp.state != PWrite
		capRound := cp.capturedRound
		if cond {
			s.emitPage(p.Clock(), p.ID, v, "RELCOND", "proc %d state=%v cap=%d", p.ID, cp.state, capRound)
		}
		s.st.Count("rel", 1)
		s.spend(p, stats.MGS, s.net.SendCost())
		relProc := p.ID
		home := s.space.HomeProc(v)
		s.net.SendTagged(sim.Label{Kind: "REL", Page: int64(v), Src: p.ID, Dst: home},
			p.ID, home, p.Clock(), c.CtrlBytes, c.RelWork,
			func(at sim.Time) { s.onRel(s.server(v), relProc, capRound, cond, at) })
		// Deviation from Table 1 (which holds the lock to the RACK):
		// the release round sends an INV back to this SSMP, and that
		// handler takes this same lock — holding it here would
		// deadlock the protocol against itself.
		s.unlock(cp, p.Clock())
		s.parkCharge(p, stats.MGS) // woken by the RACK handler
	}
}

// onRel is the Server's REL handler (arcs 20–22). cond reports that the
// releaser's copy was already captured by some round; capRound is that
// round's id (-1 for re-queued releases re-entering after a round).
func (s *System) onRel(sp *serverPage, relProc int, capRound int64, cond bool, at sim.Time) {
	if sp.state == sRel {
		// Arc 22 folds a concurrent REL into the round in progress,
		// assuming the round's invalidations collect the releaser's
		// dirty data. That fails only for a copy this same round has
		// already captured and that was re-dirtied after the capture (a
		// retained single-writer copy — the refill is local, so the
		// re-dirty needs no round-blocked serve): folding such a REL in
		// would acknowledge data the round never saw. Those releases
		// re-run as a fresh round. A captured-and-torn-down copy
		// (cond) cannot re-dirty mid-round — its refetch pends behind
		// the round — so its data is covered and the REL folds in.
		if !cond && capRound == sp.round {
			sp.pendReRel = append(sp.pendReRel, relProc)
			s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{relRequeued, 0, 0},
				"from proc %d REQUEUED (copy captured round %d)", relProc, capRound)
			return
		}
		if s.cfg.Costs.UpdateProtocol && sp.refreshDone && s.ssmpOf(relProc) == s.ssmpOf(sp.homeProc) {
			// The refresh image was snapshotted before this home-SSMP
			// release's in-place writes; folding it in would RACK a
			// release whose data the refreshes never carried.
			sp.pendReRel = append(sp.pendReRel, relProc)
			s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{relRequeuedHome, 0, 0},
				"from proc %d REQUEUED (post-image home release)", relProc)
			return
		}
		sp.pendRel = append(sp.pendRel, relProc)
		s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{relPended, 0, 0},
			"from proc %d PENDED", relProc)
		return
	}
	if cond {
		// The capturing round has already completed: the releaser's
		// data is merged and every copy served since reflects it. The
		// release is satisfied with no new round.
		s.st.Count("rel.sat", 1)
		s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{relSatisfied, 0, 0},
			"from proc %d SATISFIED (captured round %d done)", relProc, capRound)
		s.sendRack(sp, relProc, at)
		return
	}
	targets := s.dirTargets(sp, -1)
	if len(targets) == 0 {
		s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{relNoTargets, 0, 0},
			"from proc %d NOTARGETS", relProc)
		s.sendRack(sp, relProc, at)
		return
	}
	tmask := sp.readDir.mask64() | sp.writeDir.mask64()
	s.emitPageArgs(at, relProc, sp.page, "REL", [3]int64{relRound, int64(tmask), int64(sp.writeDir.mask64())},
		"from proc %d -> round targets=%b writeDir=%b", relProc, tmask, sp.writeDir.mask64())
	sp.state = sRel
	sp.round++
	sp.count = len(targets)
	sp.pendRel = append(sp.pendRel, relProc)
	sp.keepWriter = -1
	// A coarse write directory can never certify a single writer
	// (isOnly is false there), so the optimization is forgone — the
	// round's DIFF replies still carry every writer's data.
	oneWriter := s.cfg.Costs.SingleWriter && !sp.homeDirty
	for _, r := range targets {
		oneW := oneWriter && sp.writeDir.isOnly(r)
		if oneW {
			sp.keepWriter = r
			s.st.Count("1winv", 1)
		} else {
			s.st.Count("inv", 1)
		}
		sp.invQueue = append(sp.invQueue, invTarget{ssmp: r, oneW: oneW})
	}
	if s.cfg.Costs.SerialInv {
		s.dispatchInv(sp, at) // one at a time; replies pull the next
		return
	}
	for len(sp.invQueue) > 0 {
		s.dispatchInv(sp, at)
	}
}

// dispatchInv sends the INV/1WINV for the next queued target, addressed
// with the home's own record of the copy (rmt) — the remote SSMP's
// state is never read from here.
func (s *System) dispatchInv(sp *serverPage, at sim.Time) {
	t := sp.invQueue[0]
	sp.invQueue = sp.invQueue[1:]
	rc := sp.rmtGet(t.ssmp)
	cp, o := rc.cp, int(rc.owner)
	oneW := t.oneW
	round := sp.round
	s.net.SendTagged(sim.Label{Kind: "INV", Page: int64(sp.page), Src: sp.homeProc, Dst: o, Aux: b2i(oneW)},
		sp.homeProc, o, at, s.cfg.Costs.CtrlBytes, 0,
		func(at2 sim.Time) { s.onInv(sp, cp, oneW, round, at2) })
}

// onInv is the Remote Client's INV/1WINV handler (arcs 14–16), running
// on the processor owning the SSMP's copy. It takes the page-table lock
// (queuing if busy, per the paper's footnote 2), cleans the page, shoots
// down TLB mappings, and replies ACK, DIFF, or 1WDATA. round is the
// capturing round's id, recorded on the copy for its next release.
func (s *System) onInv(sp *serverPage, cp *clientPage, oneW bool, round int64, at sim.Time) {
	s.lockHandler(cp, at, func(at sim.Time) {
		o := s.clientOwner(cp)
		if cp.state != PWrite && cp.state != PRead {
			// Copy already gone; acknowledge with nothing to merge.
			cp.capturedRound = round
			s.emitPageArgs(at, -1, cp.page, "FINISHINV", [3]int64{finvGone, int64(cp.ssmp), 0},
				"ssmp %d copy already gone (state=%v)", cp.ssmp, cp.state)
			s.replyInv(sp, o, ackReply, nil, nil, false, at)
			s.unlock(cp, at)
			return
		}
		ss := s.ssmps[cp.ssmp]
		at = s.net.Extend(o, at, ss.domain.CleanPage(cp.frame, cp.dir))
		cp.invOneW = oneW
		cp.invCount = bits.OnesCount64(cp.tlbDir)
		s.emitPageArgs(at, -1, cp.page, "INVSTART", [3]int64{int64(cp.ssmp), b2i(oneW), int64(cp.invCount)},
			"ssmp %d tlbDir=%b state=%v oneW=%v", cp.ssmp, cp.tlbDir, cp.state, oneW)
		if cp.invCount == 0 {
			s.finishInv(sp, cp, round, at)
			return
		}
		c := &s.cfg.Costs
		v := cp.page
		for t := cp.tlbDir; t != 0; t &= t - 1 {
			q := s.ssmpBase(cp.ssmp) + bits.TrailingZeros64(t)
			s.st.Count("pinv", 1)
			s.net.SendTagged(sim.Label{Kind: "PINV", Page: int64(v), Src: o, Dst: q},
				o, q, at, c.CtrlBytes, c.PinvWork, func(at2 sim.Time) {
					// PINV (arc 11): drop the TLB entry, then acknowledge.
					// Unlike the table's arc 12, the processor's DUQ entry
					// stays — see the note in finishInv.
					s.tlbs[q].Invalidate(v)
					s.net.SendTagged(sim.Label{Kind: "PINVACK", Page: int64(v), Src: q, Dst: o},
						q, o, at2, c.CtrlBytes, 0, func(at3 sim.Time) {
							// PINV_ACK (arcs 15–16).
							cp.invCount--
							if cp.invCount == 0 {
								s.finishInv(sp, cp, round, at3)
							}
						})
				})
		}
	})
}

// ssmpBase returns the global processor ID of SSMP r's processor 0.
func (s *System) ssmpBase(r int) int { return r * s.cfg.ClusterSize }

// clientOwner returns the processor the SSMP's Remote Client runs on:
// the copy's first-touch owner, or (before any placement) the SSMP's
// first processor. SSMP-local — home-side code uses rmt instead.
func (s *System) clientOwner(cp *clientPage) int {
	if cp.ownerProc >= 0 {
		return cp.ownerProc
	}
	return s.ssmpBase(cp.ssmp)
}

// finishInv completes an invalidation at the Remote Client once all
// PINV_ACKs are in (arc 16): it captures the page's modifications (diff
// or whole page), tears down or retains the copy, and replies to the
// Server. Called with the page-table lock held; releases it.
//
// The diff (or 1WDATA snapshot) is captured here, after the TLB
// shootdown, rather than at INV arrival as Table 1 writes it — capturing
// before the shootdown could lose a concurrent local write that the
// paper's microsecond-scale window makes improbable but a simulator
// makes routine.
func (s *System) finishInv(sp *serverPage, cp *clientPage, round int64, at sim.Time) {
	cp.capturedRound = round
	c := &s.cfg.Costs
	o := s.clientOwner(cp)
	ss := s.ssmps[cp.ssmp]
	isHome := cp.ssmp == s.ssmpOf(sp.homeProc)

	// Deliberate deviation from Table 1's arc 12: delayed-update-queue
	// entries are NOT removed by invalidations. A processor whose write
	// was collected by this round still pops the page at its own
	// release and, if the round is in flight, waits for it — otherwise
	// its release could complete before the captured data reaches the
	// home, and the next lock holder would read stale data.

	arm := finvAckTeardown
	switch {
	case s.cfg.Costs.UpdateProtocol:
		arm = finvUpdateCapture
	case cp.invOneW:
		arm = finvOneWRetain
	case cp.state == PWrite:
		arm = finvDiffTeardown
	}
	s.emitPageArgs(at, -1, cp.page, "FINISHINV", [3]int64{arm, int64(cp.ssmp), b2i(isHome)},
		"ssmp %d state=%v oneW=%v", cp.ssmp, cp.state, cp.invOneW)
	if s.cfg.Costs.UpdateProtocol {
		// Update protocol: capture the copy's modifications but keep
		// the copy itself; the round's refresh phase will overwrite it
		// with the merged image. The TLB shootdown has already
		// happened, so subsequent writes re-fault (cheap local fills)
		// and re-enter the delayed update queues.
		var d Diff
		var db *DiffBuf
		if cp.state == PWrite && !isHome {
			at = s.net.Extend(o, at, sim.Time(s.cfg.PageSize)*c.DiffPerByte)
			db = getDiffBuf()
			d = db.Compute(cp.twin, cp.frame.Data)
			s.retwin(cp)
			s.st.Count("upd.diff", 1)
		}
		cp.tlbDir = 0
		s.replyInv(sp, o, diffReply, d, db, false, at)
		s.unlock(cp, at)
		return
	}

	switch {
	case cp.invOneW:
		// Single-writer optimization: no diff scan is charged and the
		// full page's bandwidth is paid (the paper's bandwidth-for-
		// computation trade), the twin is refreshed, and the copy stays
		// cached with state WRITE — the next local fault refills the
		// TLB cheaply. The home applies the transfer as a diff, not a
		// page overwrite: an upgrade's WNOTIFY can race the REL, making
		// a "single-writer" round also carry a concurrent diff that a
		// whole-page copy would clobber.
		at = s.net.Extend(o, at, sim.Time(s.cfg.PageSize)*c.TwinPerByte)
		var d Diff
		var db *DiffBuf
		if !isHome {
			db = getDiffBuf()
			d = db.Compute(cp.twin, cp.frame.Data)
		}
		s.retwin(cp)
		cp.tlbDir = 0
		s.st.Count("1wdata", 1)
		s.replyInv(sp, o, oneWReply, d, db, false, at)

	case cp.state == PWrite:
		at = s.net.Extend(o, at, sim.Time(s.cfg.PageSize)*c.DiffPerByte)
		var d Diff
		var db *DiffBuf
		if isHome {
			// The home SSMP's writes are already in the home frame —
			// no diff travels, but they count as foreign data for the
			// retention decision below, exactly like a merged diff.
			sp.sawDiff = true
		} else {
			db = getDiffBuf()
			d = db.Compute(cp.twin, cp.frame.Data)
		}
		s.st.Count("diff", 1)
		s.st.Count("diffbytes", int64(d.Bytes(0)))
		s.teardown(ss, cp, isHome, true)
		s.replyInv(sp, o, diffReply, d, db, true, at)

	default: // PRead
		s.st.Count("ackinv", 1)
		s.teardown(ss, cp, isHome, true)
		s.replyInv(sp, o, ackReply, nil, nil, true, at)
	}
	s.unlock(cp, at)
}

// teardown frees the SSMP's copy of the page. The home SSMP's "copy" is
// the home frame itself, which survives; only the mapping goes. recycle
// returns a remote frame to the SSMP's allocator — only safe after a
// CleanPage has purged every cached line of the frame (the eager
// invalidation path does; the lazy acquire path does not and passes
// false).
func (s *System) teardown(ss *ssmpState, cp *clientPage, isHome, recycle bool) {
	ss.domain.Unregister(cp.frame)
	if recycle && !isHome {
		ss.frames.Recycle(cp.frame)
	}
	cp.frame = nil
	cp.dir = nil
	s.recycleTwin(cp)
	cp.tlbDir = 0
	cp.state = PInv
	cp.gen++ // a refetched copy is a new incarnation
}

// invReply is the kind of an invalidation reply.
type invReply uint8

const (
	ackReply  invReply = iota // ACK: read copy dropped
	diffReply                 // DIFF: twin/page diff attached
	oneWReply                 // 1WDATA: whole page's bandwidth, diff semantics
)

// replyInv sends the invalidation reply (ACK / DIFF / 1WDATA) to the
// Server. tornDown reports that this reply retires a copy incarnation
// (the Server counts them per SSMP for the WNOTIFY staleness check).
// db, when non-nil, is the pooled buffer backing d; the Server recycles
// it after the merge.
func (s *System) replyInv(sp *serverPage, from int, kind invReply, d Diff, db *DiffBuf, tornDown bool, at sim.Time) {
	c := &s.cfg.Costs
	bytes := c.CtrlBytes
	switch kind {
	case diffReply:
		bytes += d.Bytes(c.DiffHdrByte)
	case oneWReply:
		if len(d) > 0 || from != sp.homeProc {
			bytes += s.cfg.PageSize
		}
	}
	// The label folds in the payload digest: two states that differ only
	// in the contents of an in-flight reply must not look identical to
	// the model checker's pending-event hash. Never computed on normal
	// runs (no chooser armed).
	aux := int64(kind) | b2i(tornDown)<<4
	if s.eng.Choosing() && len(d) > 0 {
		aux |= int64(d.Checksum()<<8) >> 8 << 8 // keep kind+teardown in the low byte
	}
	s.net.SendTagged(sim.Label{Kind: "IREPLY", Page: int64(sp.page), Src: from, Dst: sp.homeProc, Aux: aux},
		from, sp.homeProc, at, bytes, 0, func(at2 sim.Time) {
			s.onInvReply(sp, from, kind, d, db, tornDown, at2)
		})
}

// onInvReply is the Server's ACK/DIFF/1WDATA handler (arcs 22–23): merge
// incoming modifications into the home frame; when the last reply
// arrives, finish the release round. from is the replying Remote Client's
// processor.
func (s *System) onInvReply(sp *serverPage, from int, kind invReply, d Diff, db *DiffBuf, tornDown bool, at sim.Time) {
	c := &s.cfg.Costs
	s.emitPageArgs(at, -1, sp.page, "INVREPLY", [3]int64{int64(kind), int64(s.ssmpOf(from)), b2i(tornDown)},
		"kind=%d diff=%d torn=%v count->%d", kind, len(d), tornDown, sp.count-1)
	if tornDown {
		// One more incarnation of this SSMP's copy is fully retired;
		// WNOTIFYs naming earlier incarnations are stale from now on.
		sp.rmtGet(s.ssmpOf(from)).gens++
	}
	if kind == ackReply && sp.keepWriter >= 0 && s.ssmpOf(from) == sp.keepWriter {
		// The supposedly retained single writer reports its copy already
		// gone: its write_dir bit was a phantom. That happens when a
		// WNOTIFY is delayed past the release round that captured the
		// copy — the late notification re-registers an SSMP that holds
		// nothing. Retention would then write the phantom back into
		// write_dir at finishRel, where the single-writer test would
		// retain it again on every subsequent round, forever. Drop the
		// retention; the round ends with clean directories.
		sp.keepWriter = -1
		s.st.Count("1wphantom", 1)
	}
	if len(d) > 0 {
		// A 1WDATA transfer occupies the home for the full page; a
		// DIFF only for its changed bytes.
		mergeBytes := d.Bytes(0)
		if kind == oneWReply {
			mergeBytes = s.cfg.PageSize
		}
		at = s.net.Extend(sp.homeProc, at,
			c.MergeWork+sim.Time(mergeBytes)*c.ApplyPerByte)
		d.Apply(sp.frame.Data)
		if kind == oneWReply {
			s.st.Count("merge.page", 1)
		} else {
			s.st.Count("merge.diff", 1)
			sp.sawDiff = true
		}
	}
	putDiffBuf(db)
	sp.count--
	if len(sp.invQueue) > 0 {
		s.dispatchInv(sp, at)
		return
	}
	if sp.count == 0 {
		s.finishRel(sp, at)
	}
}

// finishRel completes a release round (arc 23): reset the directories
// (re-registering a retained single-writer copy — the printed table
// drops it, which would strand a stale copy), RACK every queued
// releaser, and serve queued replication requests.
func (s *System) finishRel(sp *serverPage, at sim.Time) {
	if s.cfg.Costs.UpdateProtocol {
		targets := s.dirTargets(sp, s.ssmpOf(sp.homeProc))
		if !sp.refreshDone && len(targets) != 0 {
			sp.refreshDone = true
			// Refresh phase: push the merged image to every copy; the
			// round completes only when all have acknowledged, so no
			// post-release lock grant can read a stale copy.
			sp.refreshing = len(targets)
			img := sp.frame.Snapshot()
			for _, r := range targets {
				s.sendRefresh(sp, r, img, at)
			}
			return
		}
		sp.refreshDone = false
		sp.keepWriter = -1
		sp.sawDiff = false
		sp.homeDirty = false
		// Unlike invalidate mode, copies persist and are never
		// re-served, so the serve-time shootdown of the home SSMP's
		// write mappings never recurs. Re-arm it here: the next home
		// in-place write must fault back into a delayed update queue,
		// or the persistent remote copies would go permanently stale.
		homeSSMP := s.ssmpOf(sp.homeProc)
		if hcp := s.ssmps[homeSSMP].pages.get(sp.page); hcp != nil && hcp.state == PWrite && hcp.tlbDir != 0 {
			n := 0
			for t := hcp.tlbDir; t != 0; t &= t - 1 {
				q := s.ssmpBase(homeSSMP) + bits.TrailingZeros64(t)
				s.tlbs[q].Invalidate(sp.page)
				n++
			}
			hcp.tlbDir = 0
			s.st.Count("upd.homeshootdown", int64(n))
			s.net.Extend(sp.homeProc, at, sim.Time(n)*s.cfg.Costs.PinvWork)
		}
		// Directories persist: the copies are still out there, valid.
		if !sp.writeDir.empty() {
			sp.state = sWrite
		} else {
			sp.state = sRead
		}
		rel := sp.pendRel
		sp.pendRel = nil
		for _, rp := range rel {
			s.sendRack(sp, rp, at)
		}
		reqs := sp.pendReq
		sp.pendReq = nil
		for _, rq := range reqs {
			s.serveData(sp, rq.cp, s.procs[rq.proc], rq.write, at)
		}
		rerel := sp.pendReRel
		sp.pendReRel = nil
		for _, rp := range rerel {
			s.st.Count("rel.requeued", 1)
			s.onRel(sp, rp, -1, false, at)
		}
		return
	}
	if sp.keepWriter >= 0 && (sp.sawDiff || sp.homeDirty) && sp.keepWriter != s.ssmpOf(sp.homeProc) {
		// Retention is only sound if nothing but the keeper's own data
		// merged this round. A racing upgrade's diff or the home
		// SSMP's in-place stores make the retained copy stale; demote
		// it with a follow-up INV before the round completes (and thus
		// before any RACK — so no post-release lock grant can read the
		// stale copy).
		s.emitPageArgs(at, -1, sp.page, "DEMOTE", [3]int64{int64(sp.keepWriter), 0, 0},
			"retained ssmp %d", sp.keepWriter)
		s.st.Count("1wdemote", 1)
		sp.invQueue = append(sp.invQueue, invTarget{ssmp: sp.keepWriter, oneW: false})
		sp.keepWriter = -1
		sp.sawDiff = false
		sp.count = 1
		s.dispatchInv(sp, at)
		return
	}
	sp.sawDiff = false
	sp.homeDirty = false
	s.emitPageArgs(at, -1, sp.page, "FINISHREL",
		[3]int64{int64(sp.keepWriter), int64(len(sp.pendRel)), int64(len(sp.pendReq))},
		"keep=%d pendRel=%v pendReq=%v", sp.keepWriter, sp.pendRel, sp.pendReq)
	sp.readDir.clear()
	sp.writeDir.clear()
	sp.state = sRead
	if sp.keepWriter >= 0 {
		sp.writeDir.add(sp.keepWriter, s.dirThresh, s.dirGrain)
		sp.state = sWrite
		sp.keepWriter = -1
	}
	if k := s.cfg.Costs.MigrateAfter; k > 0 && sp.writeDir.empty() && sp.readDir.empty() &&
		sp.streak >= k && sp.lastReq != s.ssmpOf(sp.homeProc) && len(sp.pendReq) == 0 {
		s.migrateHome(sp, sp.lastReq, at)
	}
	rel := sp.pendRel
	sp.pendRel = nil
	for _, rp := range rel {
		s.sendRack(sp, rp, at)
	}
	reqs := sp.pendReq
	sp.pendReq = nil
	for _, rq := range reqs {
		s.serveData(sp, rq.cp, s.procs[rq.proc], rq.write, at)
	}
	// Releases that arrived after their SSMP's capture start over as a
	// fresh round (the first re-REL opens it; the rest fold in safely,
	// since every capture of the new round postdates their writes).
	rerel := sp.pendReRel
	sp.pendReRel = nil
	for _, rp := range rerel {
		s.st.Count("rel.requeued", 1)
		s.onRel(sp, rp, -1, false, at)
	}
}

// sendRefresh pushes the merged page image to one copy (update
// protocol); the copy replays its own post-capture writes on top and
// acknowledges.
func (s *System) sendRefresh(sp *serverPage, r int, img []byte, at sim.Time) {
	rc := sp.rmtGet(r)
	cp, o := rc.cp, int(rc.owner)
	s.st.Count("upd.refresh", 1)
	s.net.Send(sp.homeProc, o, at, s.cfg.PageSize+s.cfg.Costs.CtrlBytes, 0,
		func(at2 sim.Time) {
			s.lockHandler(cp, at2, func(at3 sim.Time) {
				if cp.frame != nil && (cp.state == PWrite || cp.state == PRead) {
					c := &s.cfg.Costs
					at3 = s.net.Extend(s.clientOwner(cp), at3,
						c.MergeWork+sim.Time(s.cfg.PageSize)*c.ApplyPerByte)
					if cp.state == PWrite && cp.twin != nil {
						db := getDiffBuf()
						local := db.Compute(cp.twin, cp.frame.Data)
						cp.frame.CopyFrom(img)
						local.Apply(cp.frame.Data)
						copy(cp.twin, img)
						putDiffBuf(db)
					} else {
						cp.frame.CopyFrom(img)
					}
				}
				s.unlock(cp, at3)
				s.net.Send(s.clientOwner(cp), sp.homeProc, at3, s.cfg.Costs.CtrlBytes, 0,
					func(at4 sim.Time) {
						sp.refreshing--
						if sp.refreshing == 0 {
							s.finishRel(sp, at4)
						}
					})
			})
		})
}

// migrateHome moves the page's home to SSMP r (dynamic migration, an
// extension — see Costs.MigrateAfter; the Server record moves between
// the SSMPs' arenas). Called at a quiescent
// point: no copies outstanding, no queued requests. The old home SSMP's
// own mapping is torn down; its processors refetch like any other
// client.
func (s *System) migrateHome(sp *serverPage, r int, at sim.Time) {
	oldHome := sp.homeProc
	oldSSMP := s.ssmpOf(oldHome)
	newHome := s.ssmpBase(r) + int(uint64(sp.page)%uint64(s.cfg.ClusterSize))
	if hcp := s.ssmps[oldSSMP].pages.get(sp.page); hcp != nil && hcp.frame != nil {
		for t := hcp.tlbDir; t != 0; t &= t - 1 {
			q := s.ssmpBase(oldSSMP) + bits.TrailingZeros64(t)
			s.tlbs[q].Invalidate(sp.page)
		}
		s.ssmps[oldSSMP].domain.CleanPage(hcp.frame, hcp.dir)
		s.ssmps[oldSSMP].domain.Unregister(hcp.frame)
		hcp.tlbDir = 0
		hcp.frame = nil
		hcp.dir = nil
		s.recycleTwin(hcp)
		hcp.state = PInv
	}
	// The Server record follows the home: it lives in the home SSMP's
	// arena so lookups resolve through the (re-homed) address space.
	s.ssmps[oldSSMP].servers.del(sp.page)
	sp.homeProc = newHome
	sp.streak = 0
	s.space.Rehome(sp.page, newHome)
	s.ssmps[r].servers.put(sp.page, sp)
	s.st.Count("migrate", 1)
	s.emitPage(at, -1, sp.page, "MIGRATE", "home %d -> %d", oldHome, newHome)
	// The page image travels to the new home's memory.
	s.net.Send(oldHome, newHome, at, s.cfg.PageSize+s.cfg.Costs.CtrlBytes, 0, func(sim.Time) {})
}

// sendRack acknowledges a release to the waiting processor (arc 9–10).
func (s *System) sendRack(sp *serverPage, relProc int, at sim.Time) {
	s.st.Count("rack", 1)
	s.net.SendTagged(sim.Label{Kind: "RACK", Page: int64(sp.page), Src: sp.homeProc, Dst: relProc},
		sp.homeProc, relProc, at, s.cfg.Costs.CtrlBytes, 0, func(at2 sim.Time) {
			s.procs[relProc].Wake(at2)
		})
}
