package obs

import (
	"fmt"
	"io"
	"sort"

	"mgs/internal/sim"
)

// ProfKey is one attribution cell: a processor, a runtime component
// (the stats.Category ordinal — User/Lock/Barrier/MGS), and the object
// the cycles were spent on.
type ProfKey struct {
	Proc int32
	Comp uint8
	Kind ObjKind
	ID   int64
}

// rowKey names one row of the store: a processor and the object its
// cycles were spent on.
type rowKey struct {
	proc int32
	kind ObjKind
	id   int64
}

// profRow is one row of the store: a (processor, object) key and its
// cycles per component.
type profRow struct {
	key    rowKey
	cycles []sim.Time // [comp]
}

// Profiler is a machine's cycle store: every simulated cycle the run
// charges lands in one row, keyed by (processor, object), in the column
// of its runtime component. The object is a per-processor context the
// protocol and sync layers set around their work: the page a fault is
// resolving, the lock being acquired, the barrier being waited on.
// Cycles charged with no context land in the processor's ObjNone row.
//
// The store is the only record of charged cycles: the stats breakdown
// is its per-processor view, and Samples, Heat and WriteCollapsed are
// its per-object views. Object contexts are tracked only when the
// observer the store was built with has profiling enabled; otherwise
// SetContext is a no-op and each processor has the one ObjNone row.
type Profiler struct {
	ncomp int
	cur   []*profRow // [proc] -> the row Charge adds into
	rows  []*profRow // every row, in creation order
	// byKey indexes every row once object contexts are tracked; nil
	// when they are not.
	byKey map[rowKey]*profRow
}

// NewProfiler returns the cycle store for a machine of nprocs
// processors and ncomp attribution components. When o has profiling
// enabled, the store tracks object contexts and becomes o's Profiler
// (the first store built with o does: an observer watches one machine).
func NewProfiler(nprocs, ncomp int, o *Observer) *Profiler {
	p := &Profiler{
		ncomp: ncomp,
		cur:   make([]*profRow, nprocs),
		rows:  make([]*profRow, nprocs),
	}
	base := make([]profRow, nprocs)
	cells := make([]sim.Time, nprocs*ncomp)
	for i := range base {
		base[i] = profRow{key: rowKey{proc: int32(i)}, cycles: cells[i*ncomp : (i+1)*ncomp : (i+1)*ncomp]}
		p.cur[i], p.rows[i] = &base[i], &base[i]
	}
	if o != nil && o.profile {
		p.byKey = make(map[rowKey]*profRow, nprocs)
		for i := range base {
			p.byKey[base[i].key] = &base[i]
		}
		if o.prof == nil {
			o.prof = p
		}
	}
	return p
}

// SetContext switches processor proc's attribution object, returning
// the previous object so callers can nest and restore:
//
//	k, id := prof.SetContext(p, obs.ObjPage, int64(page))
//	defer prof.SetContext(p, k, id)
//
// It only switches rows when object contexts are tracked.
func (p *Profiler) SetContext(proc int, kind ObjKind, id int64) (ObjKind, int64) {
	prev := p.cur[proc].key
	if k := (rowKey{proc: int32(proc), kind: kind, id: id}); p.byKey != nil && k != prev {
		r := p.byKey[k]
		if r == nil {
			r = &profRow{key: k, cycles: make([]sim.Time, p.ncomp)}
			p.byKey[k] = r
			p.rows = append(p.rows, r)
		}
		p.cur[proc] = r
	}
	return prev.kind, prev.id
}

// Context reports processor proc's current attribution object.
func (p *Profiler) Context(proc int) (ObjKind, int64) {
	k := p.cur[proc].key
	return k.kind, k.id
}

// Charge adds cycles to component comp of processor proc's current
// row. It is every charge site's hot path: one indexed add.
func (p *Profiler) Charge(proc, comp int, cycles sim.Time) {
	p.cur[proc].cycles[comp] += cycles
}

// EachRow calls f with every row of the store, in creation order. The
// cycles slice is the row itself, indexed by component; f must not
// modify it.
func (p *Profiler) EachRow(f func(proc int, kind ObjKind, id int64, cycles []sim.Time)) {
	for _, r := range p.rows {
		f(int(r.key.proc), r.key.kind, r.key.id, r.cycles)
	}
}

// Sample is one attributed cell.
type Sample struct {
	Key    ProfKey
	Cycles sim.Time
}

// Samples returns every nonzero cell sorted by (Proc, Comp, Kind, ID) —
// a deterministic flattening of the store.
func (p *Profiler) Samples() []Sample {
	var out []Sample
	for _, r := range p.rows {
		for comp, c := range r.cycles {
			if c != 0 {
				out = append(out, Sample{
					Key:    ProfKey{Proc: r.key.proc, Comp: uint8(comp), Kind: r.key.kind, ID: r.key.id},
					Cycles: c,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Comp != b.Comp {
			return a.Comp < b.Comp
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.ID < b.ID
	})
	return out
}

// HeatLine is one object's aggregate cost across all processors and
// components.
type HeatLine struct {
	Kind   ObjKind
	ID     int64
	Cycles sim.Time
	// ByComp splits the object's cycles by component ordinal.
	ByComp []sim.Time
}

// Heat aggregates cycles per object of the given kind, hottest first
// (ties break low-ID-first, so output is deterministic).
func (p *Profiler) Heat(kind ObjKind) []HeatLine {
	byID := make(map[int64]*HeatLine)
	for _, s := range p.Samples() {
		if s.Key.Kind != kind {
			continue
		}
		h := byID[s.Key.ID]
		if h == nil {
			h = &HeatLine{Kind: kind, ID: s.Key.ID, ByComp: make([]sim.Time, p.ncomp)}
			byID[s.Key.ID] = h
		}
		h.Cycles += s.Cycles
		h.ByComp[s.Key.Comp] += s.Cycles
	}
	var out []HeatLine
	for _, h := range byID {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteCollapsed writes the profile in collapsed-stack ("folded")
// format, one line per cell:
//
//	proc3;MGS;page:42 1234
//
// which flamegraph.pl, speedscope, and `go tool pprof`-adjacent tooling
// ingest directly. compName maps component ordinals to names.
func (p *Profiler) WriteCollapsed(w io.Writer, compName func(int) string) error {
	for _, s := range p.Samples() {
		var obj string
		if s.Key.Kind == ObjNone {
			obj = "(none)"
		} else {
			obj = fmt.Sprintf("%s:%d", s.Key.Kind, s.Key.ID)
		}
		if _, err := fmt.Fprintf(w, "proc%d;%s;%s %d\n",
			s.Key.Proc, compName(int(s.Key.Comp)), obj, int64(s.Cycles)); err != nil {
			return err
		}
	}
	return nil
}
