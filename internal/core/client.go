package core

import (
	"fmt"

	"mgs/internal/cache"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// fault is the Local Client: it runs on the faulting processor and
// resolves a TLB fault on page v (Table 1 arcs 1–7). On return the TLB
// holds a sufficient mapping (the caller retries the access).
func (s *System) fault(p *sim.Proc, ss *ssmpState, v vm.Page, write bool) {
	// A fault is ordering-relevant: yield so every event and processor
	// segment at or before this clock settles first. Without this, a
	// processor that has run ahead can physically seize the page-table
	// lock "from the future", inverting virtual-time lock order and
	// charging enormous phantom waits to earlier faulters.
	p.Yield()
	// Attribute every cycle of this fault — entry, protocol waits, the
	// woken continuation — to the page being resolved.
	pk, pid := s.st.ProfSet(p.ID, obs.ObjPage, int64(v))
	defer s.st.ProfSet(p.ID, pk, pid)
	if s.Obs.Tracing() {
		// One Local Client engine span per fault, entry to resolution.
		t0 := p.Clock()
		defer func() {
			s.emitEngine(t0, p.ID, v, "LCLIENT", p.Clock()-t0, "proc %d write=%v", p.ID, write)
		}()
	}
	c := &s.cfg.Costs
	s.spend(p, stats.MGS, c.FaultEntry)
	if write {
		s.st.Count("fault.write", 1)
	} else {
		s.st.Count("fault.read", 1)
	}

	if s.cfg.Disabled {
		s.nullFill(p, ss, v, write)
		return
	}

	cp := ss.ensurePage(v)
	s.lockProc(cp, p, stats.MGS)

	switch {
	case cp.state == PWrite || (cp.state == PRead && !write):
		// Arc 1 / arcs 3,4: mapping exists locally; fill the TLB.
		s.spend(p, stats.MGS, c.TLBFill)
		s.emitPageArgs(p.Clock(), p.ID, v, "LOCALFILL", [3]int64{b2i(write), int64(cp.state), 0},
			"proc %d write=%v state=%v", p.ID, write, cp.state)
		s.st.Count("tlbfill.local", 1)
		priv := vm.Read
		if cp.state == PWrite && write {
			priv = vm.Write
		}
		s.insertTLB(ss, p.ID, v, priv)
		cp.tlbDir |= bit(s.within(p.ID))
		if write {
			ss.duqs[s.within(p.ID)].add(v)
			// Touch the Server record only when this SSMP is the home
			// (home state is home-SSMP state).
			if s.ssmpOf(s.space.HomeProc(v)) == cp.ssmp {
				s.server(v).homeDirty = true
			}
		}
		s.unlock(cp, p.Clock())

	case cp.state == PRead && write:
		// Arc 2: upgrade from read to write privilege.
		s.st.Count("upgrade", 1)
		cp.tlbDir |= bit(s.within(p.ID))
		s.spend(p, stats.MGS, s.net.SendCost())
		cpRef := cp
		s.net.SendTagged(sim.Label{Kind: "UPGRADE", Page: int64(v), Src: p.ID, Dst: cp.ownerProc},
			p.ID, cp.ownerProc, p.Clock(), c.CtrlBytes, c.UpWork,
			func(at sim.Time) { s.onUpgrade(cpRef, p, at) })
		s.parkCharge(p, stats.MGS) // woken by the UP_ACK handler
		// The UP_ACK handler filled the TLB, added the page to the
		// DUQ, and released the page-table lock.

	case cp.state == PInv:
		// Arc 5: no copy in this SSMP; request one from the Server.
		cp.state = PBusy
		if write {
			s.st.Count("wreq", 1)
		} else {
			s.st.Count("rreq", 1)
		}
		home := s.space.HomeProc(v)
		s.emitPageArgs(p.Clock(), p.ID, v, "REQSTART", [3]int64{b2i(write), 0, 0},
			"proc %d write=%v", p.ID, write)
		s.spend(p, stats.MGS, s.net.SendCost())
		cpRef, w := cp, write
		s.net.SendTagged(sim.Label{Kind: "REQ", Page: int64(v), Src: p.ID, Dst: home, Aux: b2i(write)},
			p.ID, home, p.Clock(), c.CtrlBytes, c.ReqWork,
			// The Server record is resolved inside the handler — at the
			// home — not at send time on the faulting SSMP.
			func(at sim.Time) { s.onRequest(s.server(v), cpRef, p, w, at) })
		s.parkCharge(p, stats.MGS) // woken by the RDAT/WDAT handler

	default:
		panic(fmt.Sprintf("core: fault on page %d in state %v with lock held", v, cp.state))
	}
}

// nullFill is the Disabled-mode fill: plain software virtual memory with
// no coherence protocol. Every page maps the home frame directly.
func (s *System) nullFill(p *sim.Proc, ss *ssmpState, v vm.Page, write bool) {
	cp := ss.ensurePage(v)
	if cp.state == PInv {
		sp := s.server(v)
		cp.frame = sp.frame
		cp.ownerProc = sp.homeProc
		cp.dir = s.newDir(cp)
		ss.domain.Register(cp.frame, cp.dir)
		cp.state = PWrite
	}
	s.spend(p, stats.User, s.cfg.Costs.NullFill)
	s.st.Count("tlbfill.null", 1)
	s.insertTLB(ss, p.ID, v, vm.Write)
	_ = write
}

// insertTLB fills p's software TLB, keeping the page's tlbDir mask in
// step when the fill evicts another mapping.
func (s *System) insertTLB(ss *ssmpState, proc int, v vm.Page, priv vm.Priv) {
	evicted, did := s.tlbs[proc].Insert(v, priv)
	if did {
		if old := ss.pages.get(evicted); old != nil {
			old.tlbDir &^= bit(s.within(proc))
		}
	}
}

// newDir builds the frame directory for cp using its permanent
// first-touch placement.
func (s *System) newDir(cp *clientPage) *cache.Dir {
	return cache.NewDir(s.within(cp.ownerProc), s.cfg.PageSize, s.cfg.CacheParams.LineSize)
}

// onUpgrade is the Remote Client's UPGRADE handler (arc 13), running on
// the processor owning the SSMP's copy. The requester holds the
// page-table lock, so this handler runs lock-free.
func (s *System) onUpgrade(cp *clientPage, requester *sim.Proc, at sim.Time) {
	c := &s.cfg.Costs
	o := cp.ownerProc
	homeProc := s.space.HomeProc(cp.page)
	isHome := cp.ssmp == s.ssmpOf(homeProc)
	s.emitEngine(at, -1, cp.page, "RCLIENT", 0, "owner %d for proc %d", o, requester.ID)
	s.emitPageArgs(at, requester.ID, cp.page, "UPGRADE",
		[3]int64{b2i(cp.state == PRead), int64(cp.ssmp), b2i(isHome)},
		"ssmp %d applied=%v", cp.ssmp, cp.state == PRead)
	if cp.state == PRead {
		if !isHome {
			at = s.net.Extend(o, at, sim.Time(s.cfg.PageSize)*c.TwinPerByte)
			cp.twin = s.newTwin(cp.frame)
			s.st.Count("twin", 1)
		}
		cp.state = PWrite
		if isHome {
			// The home SSMP writes the home frame in place; no twin,
			// no WNOTIFY — only the retention veto. (This runs on the
			// home SSMP, so touching the Server record is fine.)
			s.server(cp.page).homeDirty = true
		} else {
			// WNOTIFY to the Server (arc 18). The notification names a
			// specific copy incarnation: if it arrives after a release
			// round has captured and torn that copy down (the INV can be
			// queued on the page-table lock behind this very upgrade, or
			// the WNOTIFY can simply be delayed in the network), applying
			// it would plant a phantom write_dir bit for an SSMP that
			// holds nothing. A later round would then send an INV that
			// queues behind a re-faulting processor whose request is
			// pended behind that same round — deadlock. Stale
			// notifications are dropped instead: under-registering a
			// write copy only forgoes the single-writer optimization (the
			// round's DIFF reply still carries the data), while
			// over-registering is unsound.
			//
			// Staleness is judged against home-side state: the Server
			// counts the teardown replies it has received from each SSMP
			// (rmt[].gens), and a notification naming incarnation g is
			// current only while gens == g. The home may briefly judge a
			// live copy stale (its teardown reply from the round that
			// captured it still in flight ahead of this WNOTIFY) — then
			// the copy is still registered in read_dir, the running
			// round invalidates it anyway, and only the single-writer
			// optimization is forgone. Under lazy release consistency
			// teardowns never report home, so that mode keeps the
			// incarnation check on the copy itself (a cross-SSMP read
			// the eager protocol avoids).
			ssmp := cp.ssmp
			gen := cp.gen
			s.net.SendTagged(sim.Label{Kind: "WNOTIFY", Page: int64(cp.page), Src: o, Dst: homeProc, Aux: gen},
				o, homeProc, at, c.CtrlBytes, 0, func(at2 sim.Time) {
					sp := s.server(cp.page)
					var stale bool
					if c.LazyRelease {
						stale = cp.gen != gen || cp.state != PWrite
					} else {
						stale = sp.rmtGens(ssmp) != gen
					}
					// Costs.MutStaleWNotify (model-checker mutation test
					// only) bypasses the staleness check, re-introducing
					// the phantom write_dir bit this check exists to kill.
					if stale && !s.cfg.Costs.MutStaleWNotify {
						s.st.Count("wnotify.stale", 1)
						s.emitPageArgs(at2, -1, sp.page, "WNOTIFY", [3]int64{1, int64(ssmp), gen},
							"from ssmp %d STALE (gen %d != home gens %d)", ssmp, gen, sp.rmtGens(ssmp))
						return
					}
					s.st.Count("wnotify", 1)
					s.emitPageArgs(at2, -1, sp.page, "WNOTIFY", [3]int64{0, int64(ssmp), gen},
						"from ssmp %d (state %d)", ssmp, sp.state)
					sp.readDir.remove(ssmp)
					sp.writeDir.add(ssmp, s.dirThresh, s.dirGrain)
					if sp.state == sRead {
						sp.state = sWrite
					}
				})
		}
	}
	// UP_ACK back to the requester (arc 7).
	v := cp.page
	s.net.SendTagged(sim.Label{Kind: "UPACK", Page: int64(v), Src: o, Dst: requester.ID},
		o, requester.ID, at, c.CtrlBytes, 0, func(at2 sim.Time) {
			ss := s.ssmps[cp.ssmp]
			ss.duqs[s.within(requester.ID)].add(v)
			s.insertTLB(ss, requester.ID, v, vm.Write)
			s.unlock(cp, at2)
			requester.Wake(at2)
		})
}
