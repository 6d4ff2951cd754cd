package algo

import "mgs/internal/sim"

// Token is the MGS lock of paper §3.2, the default: a local lock per
// SSMP plus one global lock (the token home). Acquires succeed locally
// while the SSMP owns the token; only when consecutive acquires come
// from different SSMPs does the token move, recalled through the home.
// Its hit ratio (acquires needing no inter-SSMP communication / all
// acquires) is the paper's Figure 11 metric.
type Token struct{}

// Name implements LockAlgo.
func (Token) Name() string { return "token" }

// NewLock implements LockAlgo. A fresh lock's token sits at its home
// SSMP.
func (Token) NewLock(env Env, id, home int) Lock {
	home %= env.NProcs()
	l := &tokenLock{env: env, id: id, home: home,
		local:      make([]tokenLocal, env.NSSMP()),
		tokenOwner: env.SSMPOf(home),
	}
	l.local[l.tokenOwner].hasToken = true
	return l
}

// tokenLock is one token-based distributed lock.
type tokenLock struct {
	env  Env
	id   int
	home int // global processor hosting the global lock

	local []tokenLocal // element s is touched only by SSMP s

	// Global-lock state: lives at home, mutated only by home-side
	// handlers.
	tokenOwner int   // home-side handlers only
	reqQueue   []int // home-side handlers only; FIFO of waiting SSMPs
	demandOut  bool  // home-side handlers only; a DEMAND is outstanding

	hits  int64
	total int64

	heldSince sim.Time // only the token-holding SSMP touches it
}

// tokenLocal is the per-SSMP half of a distributed lock.
type tokenLocal struct {
	hasToken  bool
	held      bool
	waitQ     []*sim.Proc
	requested bool // TOKEN_REQ sent, grant pending
	demand    bool // home wants the token back at next release
}

// Acquire implements Lock: take the local lock if this SSMP holds the
// token and nobody else does, else queue locally (requesting the token
// from the home if no request is out) and park until granted.
func (l *tokenLock) Acquire(p *sim.Proc) {
	e := l.env
	s := e.SSMPOf(p.ID)
	ll := &l.local[s]
	l.total++
	e.ChargeLock(p, e.LockOp())

	if ll.hasToken && !ll.held {
		ll.held = true
		l.heldSince = p.Clock()
		l.hits++
		return
	}
	ll.waitQ = append(ll.waitQ, p)
	if !ll.hasToken && !ll.requested {
		ll.requested = true
		if e.Tracing() {
			e.EmitLock(p.Clock(), p.ID, l.id, "TOKENREQ", "ssmp=%d proc=%d", s, p.ID)
		}
		l.request(p, s)
	}
	c0 := p.Clock()
	p.Park() // woken holding the lock
	e.LockWaited(p, p.Clock()-c0)
}

// request sends SSMP s's TOKEN_REQ to the home from p's context.
func (l *tokenLock) request(p *sim.Proc, s int) {
	e := l.env
	e.ChargeLock(p, e.SendCost())
	e.Send("LK.REQ", l.id, p.ID, l.home, p.Clock(), int64(s), e.TokenWork(),
		func(at sim.Time) { l.onTokenReq(s, at) })
}

// Release implements Lock: pass the lock on — to the home if a remote
// SSMP demanded the token, else to the next local waiter.
func (l *tokenLock) Release(p *sim.Proc) {
	e := l.env
	e.ChargeLock(p, e.LockOp())
	s := e.SSMPOf(p.ID)
	ll := &l.local[s]
	if !ll.held || !ll.hasToken {
		panic("msync: release of a lock not held by this SSMP")
	}
	if l.heldSince > 0 {
		e.CountCS(p.Clock() - l.heldSince)
	}
	ll.held = false
	if ll.demand {
		ll.demand = false
		ll.hasToken = false
		if len(ll.waitQ) > 0 && !ll.requested {
			// Local waiters remain: re-request the token.
			ll.requested = true
			l.request(p, s)
		}
		e.ChargeLock(p, e.SendCost())
		e.Send("LK.BACK", l.id, p.ID, l.home, p.Clock(), int64(s), e.TokenWork(),
			func(at sim.Time) { l.onTokenBack(at) })
		return
	}
	if len(ll.waitQ) > 0 {
		next := ll.waitQ[0]
		ll.waitQ = ll.waitQ[1:]
		ll.held = true
		l.heldSince = p.Clock() + e.LockOp()
		l.hits++
		if e.Tracing() {
			e.EmitLock(p.Clock(), p.ID, l.id, "HANDOFF", "releaser=%d(clk %d) next=%d(clk %d)", p.ID, p.Clock(), next.ID, next.Clock())
		}
		e.Handoff(p, next, e.LockOp())
	}
}

// onTokenReq runs at the global lock home: SSMP s wants the token.
func (l *tokenLock) onTokenReq(s int, at sim.Time) {
	if l.env.Tracing() {
		l.env.EmitLock(at, -1, l.id, "TOKENREQ.HOME", "ssmp=%d queue=%v owner=%d", s, l.reqQueue, l.tokenOwner)
	}
	l.reqQueue = append(l.reqQueue, s)
	l.pumpDemand(at)
}

// pumpDemand sends a DEMAND to the current token owner if one is needed
// and none is in flight.
func (l *tokenLock) pumpDemand(at sim.Time) {
	if l.demandOut || len(l.reqQueue) == 0 {
		return
	}
	l.demandOut = true
	e := l.env
	owner := l.tokenOwner
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "DEMAND", "-> ssmp=%d queue=%v", owner, l.reqQueue)
	}
	e.Send("LK.DEM", l.id, l.home, e.RepProc(owner, l.id), at, int64(owner), e.TokenWork(),
		func(at2 sim.Time) { l.onDemand(owner, at2) })
}

// onDemand runs at the token owner SSMP: give the token back to the
// home, now if the local lock is free, or at the next release.
func (l *tokenLock) onDemand(s int, at sim.Time) {
	e := l.env
	ll := &l.local[s]
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "DEMAND.ARRIVE", "ssmp=%d hasToken=%v held=%v", s, ll.hasToken, ll.held)
	}
	if !ll.hasToken || ll.held {
		// Held: honor the demand at the next release. No token: the
		// demand overtook the grant (possible under message jitter), so
		// the grant hands the token on after serving one local acquire.
		ll.demand = true
		return
	}
	ll.hasToken = false
	l.sendBack(s, at)
}

// sendBack returns the token from SSMP s's representative to the home.
func (l *tokenLock) sendBack(s int, at sim.Time) {
	e := l.env
	e.Send("LK.BACK", l.id, e.RepProc(s, l.id), l.home, at, int64(s), e.TokenWork(),
		func(at2 sim.Time) { l.onTokenBack(at2) })
}

// onTokenBack runs at the home: hand the token to the first queued SSMP.
func (l *tokenLock) onTokenBack(at sim.Time) {
	e := l.env
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "TOKENBACK", "queue=%v", l.reqQueue)
	}
	l.demandOut = false
	if len(l.reqQueue) == 0 {
		// No one waiting after all; home's SSMP keeps the token.
		s := e.SSMPOf(l.home)
		l.tokenOwner = s
		l.local[s].hasToken = true
		return
	}
	next := l.reqQueue[0]
	l.reqQueue = l.reqQueue[1:]
	l.tokenOwner = next
	e.Send("LK.GRANT", l.id, l.home, e.RepProc(next, l.id), at, int64(next), e.TokenWork(),
		func(at2 sim.Time) { l.onTokenGrant(next, at2) })
	// More SSMPs queued: recall the token from its new owner too, after
	// it serves one holder.
	l.pumpDemand(at)
}

// onTokenGrant runs at the requesting SSMP: the token has arrived; grant
// the lock to the first local waiter.
func (l *tokenLock) onTokenGrant(s int, at sim.Time) {
	e := l.env
	ll := &l.local[s]
	if e.Tracing() {
		e.EmitLock(at, -1, l.id, "GRANT", "ssmp=%d waiters=%d demand=%v", s, len(ll.waitQ), ll.demand)
	}
	ll.hasToken = true
	ll.requested = false
	if len(ll.waitQ) == 0 {
		if ll.demand {
			// A demand overtook this grant and nobody is waiting
			// locally: send the token straight back.
			ll.demand = false
			ll.hasToken = false
			l.sendBack(s, at)
		}
		return
	}
	next := ll.waitQ[0]
	ll.waitQ = ll.waitQ[1:]
	ll.held = true
	l.heldSince = at + e.LockOp()
	next.Wake(at + e.LockOp())
}

// Stats implements Lock.
func (l *tokenLock) Stats() (hits, total int64) {
	return l.hits, l.total
}

// Dump implements Lock.
func (l *tokenLock) Dump(f func(format string, args ...any)) {
	f("lock=%d home=%d owner=%d queue=%v demandOut=%v", l.id, l.home, l.tokenOwner, l.reqQueue, l.demandOut)
	for s := range l.local {
		ll := &l.local[s]
		if ll.hasToken || ll.held || len(ll.waitQ) > 0 || ll.requested || ll.demand {
			var ws []int
			for _, p := range ll.waitQ {
				ws = append(ws, p.ID)
			}
			f("  ssmp=%d hasToken=%v held=%v waitQ=%v requested=%v demand=%v", s, ll.hasToken, ll.held, ws, ll.requested, ll.demand)
		}
	}
}

// Quiescent implements Lock: the token is at rest with exactly one
// SSMP, nobody holds or waits, and no recall is in flight.
func (l *tokenLock) Quiescent() error {
	tokens := 0
	for s := range l.local {
		ll := &l.local[s]
		if ll.hasToken {
			tokens++
		}
		if ll.held || len(ll.waitQ) > 0 || ll.requested || ll.demand {
			return quiesceErrf("lock %d (token): ssmp %d not settled (held=%v waiters=%d requested=%v demand=%v)",
				l.id, s, ll.held, len(ll.waitQ), ll.requested, ll.demand)
		}
	}
	if tokens != 1 {
		return quiesceErrf("lock %d (token): %d SSMPs hold the token", l.id, tokens)
	}
	if l.demandOut || len(l.reqQueue) > 0 {
		return quiesceErrf("lock %d (token): home busy (demandOut=%v queue=%v)", l.id, l.demandOut, l.reqQueue)
	}
	return nil
}
