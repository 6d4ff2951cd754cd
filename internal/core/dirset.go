package core

import (
	"sort"

	"mgs/internal/vm"
)

// Hierarchical coarse-vector directory.
//
// The paper's Server tracks read and write copies in per-SSMP bitmasks
// (read_dir/write_dir), which caps a DSSMP at 64 SSMPs and costs
// O(SSMPs) home memory per page. To scale to thousand-processor
// machines the directory is now two-level:
//
//   - Exact: a sorted list of SSMP ids, kept while the sharer count
//     stays at or below Costs.DirThreshold. Precise — releases
//     invalidate exactly the registered copies, and the single-writer
//     optimization applies.
//
//   - Coarse: past the threshold the set collapses to a 64-bit cluster
//     vector, one bit per ceil(nssmp/64) consecutive SSMPs. Membership
//     becomes a sound over-approximation: removals are no-ops and a
//     release invalidates every SSMP of every marked cluster that has
//     ever held a copy. The extra fan-out is charged in real cycles —
//     each over-invalidated SSMP receives a full INV message and
//     answers through the copy-already-gone arm of onInv — which is
//     exactly the precision-for-memory trade of coarse-vector
//     hardware directories. A completed release round clears the set
//     back to exact, so precision recovers every round.
//
// Home-side memory per page is therefore O(min(sharers, threshold))
// exact entries plus a fixed vector, and the per-SSMP copy records
// (rmt) are a sorted sparse list of the SSMPs that have actually been
// served — not a dense O(SSMPs) array.

// dirSet is one directory (read or write copies) of one server page.
// The zero value is the empty exact set.
type dirSet struct {
	exact  []int32 // sorted SSMP ids, valid while !coarse
	coarse bool
	groups uint64 // cluster vector, one bit per grain SSMPs, valid while coarse
}

// add registers SSMP r. Past thresh exact entries the set goes coarse
// with clusters of grain SSMPs per bit.
func (d *dirSet) add(r, thresh, grain int) {
	if d.coarse {
		d.groups |= 1 << (uint(r/grain) & 63)
		return
	}
	i := sort.Search(len(d.exact), func(i int) bool { return d.exact[i] >= int32(r) })
	if i < len(d.exact) && d.exact[i] == int32(r) {
		return
	}
	if len(d.exact) >= thresh {
		// Collapse to the cluster vector; the exact list's memory is
		// released (that is the point).
		g := uint64(0)
		for _, e := range d.exact {
			g |= 1 << (uint(int(e)/grain) & 63)
		}
		d.exact = nil
		d.coarse = true
		d.groups = g | 1<<(uint(r/grain)&63)
		return
	}
	d.exact = append(d.exact, 0)
	copy(d.exact[i+1:], d.exact[i:])
	d.exact[i] = int32(r)
}

// remove deregisters SSMP r. In coarse mode this is a deliberate no-op:
// clearing a cluster bit could hide another member's live copy, so the
// over-approximation persists until the next round's clear.
func (d *dirSet) remove(r int) {
	if d.coarse {
		return
	}
	i := sort.Search(len(d.exact), func(i int) bool { return d.exact[i] >= int32(r) })
	if i < len(d.exact) && d.exact[i] == int32(r) {
		d.exact = append(d.exact[:i], d.exact[i+1:]...)
	}
}

// clear empties the set and returns it to exact mode.
func (d *dirSet) clear() {
	d.exact = d.exact[:0]
	d.coarse = false
	d.groups = 0
}

// empty reports whether no SSMP is registered.
func (d *dirSet) empty() bool {
	if d.coarse {
		return d.groups == 0
	}
	return len(d.exact) == 0
}

// has reports (possibly over-approximate, in coarse mode) membership.
func (d *dirSet) has(r, grain int) bool {
	if d.coarse {
		return d.groups&(1<<(uint(r/grain)&63)) != 0
	}
	i := sort.Search(len(d.exact), func(i int) bool { return d.exact[i] >= int32(r) })
	return i < len(d.exact) && d.exact[i] == int32(r)
}

// isOnly reports that the set is known to be exactly {r}. Coarse sets
// never qualify — the single-writer optimization needs certainty.
func (d *dirSet) isOnly(r int) bool {
	return !d.coarse && len(d.exact) == 1 && d.exact[0] == int32(r)
}

// mask64 projects the set onto the legacy 64-bit directory mask for
// traces, snapshots, and the model checker's refinement spec. At 64 or
// fewer SSMPs with the default threshold the set never goes coarse and
// every id fits a bit, so the projection equals the old bitmask
// exactly; larger machines fold ids mod 64 (coarse sets report the
// cluster vector), which keeps the diagnostics bounded.
func (d *dirSet) mask64() uint64 {
	if d.coarse {
		return d.groups
	}
	var m uint64
	for _, e := range d.exact {
		m |= 1 << (uint(e) & 63)
	}
	return m
}

// dirTargets returns, in ascending SSMP order, the copies a release
// round must reach: the union of the read and write directories,
// expanded through the home's sparse copy records when either set has
// gone coarse. exclude (-1 for none) drops one SSMP — the update
// protocol's refresh phase never pushes to the home's own cluster.
func (s *System) dirTargets(sp *serverPage, exclude int) []int {
	rd, wd := &sp.readDir, &sp.writeDir
	if rd.coarse || wd.coarse {
		// Coarse expansion: every SSMP ever served whose cluster bit is
		// set. Copies torn down since registration answer the INV with
		// the copy-already-gone acknowledgement, charging the coarse
		// vector's imprecision in cycles.
		s.st.Count("dir.coarse", 1)
		var out []int
		for i := range sp.rmt {
			r := int(sp.rmt[i].ssmp)
			if r != exclude && (rd.has(r, s.dirGrain) || wd.has(r, s.dirGrain)) {
				out = append(out, r)
			}
		}
		return out
	}
	out := make([]int, 0, len(rd.exact)+len(wd.exact))
	i, j := 0, 0
	for i < len(rd.exact) || j < len(wd.exact) {
		var r int
		switch {
		case j >= len(wd.exact) || (i < len(rd.exact) && rd.exact[i] < wd.exact[j]):
			r = int(rd.exact[i])
			i++
		case i >= len(rd.exact) || wd.exact[j] < rd.exact[i]:
			r = int(wd.exact[j])
			j++
		default:
			r = int(rd.exact[i])
			i, j = i+1, j+1
		}
		if r != exclude {
			out = append(out, r)
		}
	}
	return out
}

// rmtGet returns the home's copy record for SSMP r, or nil if r has
// never been served.
func (sp *serverPage) rmtGet(r int) *remoteCopy {
	i := sort.Search(len(sp.rmt), func(i int) bool { return sp.rmt[i].ssmp >= int32(r) })
	if i < len(sp.rmt) && sp.rmt[i].ssmp == int32(r) {
		return &sp.rmt[i]
	}
	return nil
}

// rmtEnsure returns (creating if needed) the copy record for SSMP r.
// Records are never deleted, so pointers stay valid until the next
// rmtEnsure of a new SSMP.
func (sp *serverPage) rmtEnsure(r int) *remoteCopy {
	i := sort.Search(len(sp.rmt), func(i int) bool { return sp.rmt[i].ssmp >= int32(r) })
	if i < len(sp.rmt) && sp.rmt[i].ssmp == int32(r) {
		return &sp.rmt[i]
	}
	sp.rmt = append(sp.rmt, remoteCopy{})
	copy(sp.rmt[i+1:], sp.rmt[i:])
	sp.rmt[i] = remoteCopy{ssmp: int32(r), owner: -1}
	return &sp.rmt[i]
}

// rmtGens returns the teardown-reply count the home has recorded for
// SSMP r (the WNOTIFY staleness clock); zero if r was never served.
func (sp *serverPage) rmtGens(r int) int64 {
	if rc := sp.rmtGet(r); rc != nil {
		return rc.gens
	}
	return 0
}

// pageArena is a page-number-indexed store of per-page records: the
// per-SSMP replacement for the former Go maps of client and server
// pages. Pages are small dense integers (the space is a bump
// allocator), so a direct slice index beats map hashing on the Access
// hot path, iteration is naturally in page order (no collect-then-sort,
// no map-range determinism hazard), and the arena is per-SSMP state
// exactly as the maps were.
type pageArena[T any] struct {
	slots []*T
	n     int
}

// get returns the record for page v, or nil.
//
//mgs:noalloc
func (a *pageArena[T]) get(v vm.Page) *T {
	if int(v) < len(a.slots) {
		return a.slots[v]
	}
	return nil
}

// put stores the record for page v.
func (a *pageArena[T]) put(v vm.Page, t *T) {
	if int(v) >= len(a.slots) {
		size := 2 * len(a.slots)
		if size < int(v)+1 {
			size = int(v) + 1
		}
		grown := make([]*T, size)
		copy(grown, a.slots)
		a.slots = grown
	}
	if a.slots[v] == nil {
		a.n++
	}
	a.slots[v] = t
}

// del removes the record for page v (home migration).
func (a *pageArena[T]) del(v vm.Page) {
	if int(v) < len(a.slots) && a.slots[v] != nil {
		a.slots[v] = nil
		a.n--
	}
}

// each calls f for every record in ascending page order.
func (a *pageArena[T]) each(f func(vm.Page, *T)) {
	for i, t := range a.slots {
		if t != nil {
			f(vm.Page(i), t)
		}
	}
}

// DirectoryStats summarizes the Server-side directory memory across
// every home: what the hierarchical directory actually holds, and an
// estimate of its bytes. mgs-bench reports these to show home state
// staying O(sharers) — not O(SSMPs) — per page as machines grow.
type DirectoryStats struct {
	Pages        int   // server page records
	RmtEntries   int   // sparse per-SSMP copy records (SSMPs ever served)
	ExactEntries int   // exact directory entries currently registered
	CoarsePages  int   // pages with a read or write directory in coarse mode
	Bytes        int64 // estimated directory bytes (records + entries + vectors)
}

// Estimated sizes of the home-side records (pointer-width words).
const (
	rmtEntryBytes   = 24 // ssmp + owner + gens + copy pointer
	exactEntryBytes = 4  // one int32 id
	dirSetBytes     = 2 * 40
)

// DenseBytes estimates what the same pages would occupy under a dense
// directory layout — one copy record per SSMP per served page,
// regardless of sharing. The ratio against Bytes is the hierarchical
// directory's O(sharers)-versus-O(SSMPs) claim, measured.
func (ds DirectoryStats) DenseBytes(nssmp int) int64 {
	return int64(ds.Pages) * (dirSetBytes + int64(nssmp)*rmtEntryBytes)
}

// DirectoryStats scans every home's server records. Host-side, no
// simulated cost.
func (s *System) DirectoryStats() DirectoryStats {
	var out DirectoryStats
	for _, ss := range s.ssmps {
		ss.servers.each(func(_ vm.Page, sp *serverPage) {
			out.Pages++
			out.RmtEntries += len(sp.rmt)
			out.ExactEntries += len(sp.readDir.exact) + len(sp.writeDir.exact)
			if sp.readDir.coarse || sp.writeDir.coarse {
				out.CoarsePages++
			}
			out.Bytes += dirSetBytes +
				int64(len(sp.rmt))*rmtEntryBytes +
				int64(len(sp.readDir.exact)+len(sp.writeDir.exact))*exactEntryBytes
		})
	}
	return out
}
