// Package harness assembles complete DSSMP machines from the substrate
// packages and runs applications and experiments on them. It is the
// packaging layer the cmd/ tools, benchmarks, and examples all share.
package harness

import (
	"fmt"
	"math"

	"mgs/internal/cache"
	"mgs/internal/core"
	"mgs/internal/fault"
	"mgs/internal/msg"
	"mgs/internal/msync"
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
	"mgs/internal/vm"
)

// Config describes one DSSMP configuration.
type Config struct {
	P        int      // total processors
	C        int      // processors per SSMP (cluster size)
	PageSize int      // bytes
	TLBSize  int      // software TLB entries per processor
	Delay    sim.Time // fixed inter-SSMP message latency (LAN model)

	// Disabled substitutes null MGS calls (the paper's C = P runs):
	// plain software virtual memory, no software coherence.
	Disabled bool

	// EngineWorkers is ignored: every machine runs on the sequential
	// event dispatcher.
	//
	// Deprecated: kept only because the frozen perfbench module reads it.
	EngineWorkers int

	// Fault, when non-empty, interposes the deterministic fault-injecting
	// reliable transport on every inter-SSMP message (internal/fault,
	// msg.Network.AttachFault). An empty plan is the identity: the run is
	// bit-identical to one that never heard of faults.
	Fault fault.Plan

	// Obs, when non-nil, is the observability spine the machine reports
	// through: trace sinks see typed protocol/transport/sync events, the
	// metrics registry collects the run's counters, gauges, and
	// histograms, and (if profiling is enabled on the observer) every
	// simulated cycle is attributed to a (processor, component, object)
	// key. Nil keeps every emission path structurally detached; runs are
	// bit-identical either way.
	Obs *obs.Observer

	Protocol core.Costs
	Cache    cache.Costs
	CacheHW  cache.Params
	Msg      msg.Costs
	Sync     msync.Costs

	// LockAlgo and BarrierAlgo name the synchronization algorithms from
	// internal/msync/algo ("token", "ticket", "mcs", "tournament" /
	// "tree", "sense", "dissemination", "mcstree", "tournament"). Empty
	// selects the paper's token lock and tree barrier.
	LockAlgo    string
	BarrierAlgo string
}

// Option mutates a Config under construction (NewConfig).
type Option func(*Config)

// WithPageSize sets the virtual page size in bytes (power of two).
func WithPageSize(bytes int) Option { return func(c *Config) { c.PageSize = bytes } }

// WithTLBSize sets the per-processor software TLB capacity.
func WithTLBSize(entries int) Option { return func(c *Config) { c.TLBSize = entries } }

// WithInterSSMPDelay sets the fixed inter-SSMP message latency (the
// paper's emulated-LAN knob, Figure 9's x-axis).
func WithInterSSMPDelay(d sim.Time) Option { return func(c *Config) { c.Delay = d } }

// WithDisabled forces the software coherence layer off or on,
// overriding the c == P default.
func WithDisabled(disabled bool) Option { return func(c *Config) { c.Disabled = disabled } }

// WithFaultPlan attaches a deterministic fault-injection plan to the
// inter-SSMP transport.
func WithFaultPlan(p fault.Plan) Option { return func(c *Config) { c.Fault = p } }

// WithObserver attaches an observability spine to the machine.
func WithObserver(o *obs.Observer) Option { return func(c *Config) { c.Obs = o } }

// WithTopology selects the inter-SSMP interconnect: msg.NewUniform()
// (the default, the paper's fixed-delay LAN), msg.NewMesh2D(),
// msg.NewFatTree(arity), or msg.NewTiered(siteSize). The spec is sized
// against the machine shape when the network is built.
func WithTopology(t msg.Topology) Option { return func(c *Config) { c.Msg.Topology = t } }

// WithLockAlgo selects the lock algorithm by name (algo.LockNames);
// "" or "token" selects the paper's token lock.
func WithLockAlgo(name string) Option { return func(c *Config) { c.LockAlgo = name } }

// WithBarrierAlgo selects the barrier algorithm by name
// (algo.BarrierNames); "" or "tree" selects the paper's two-level tree
// barrier.
func WithBarrierAlgo(name string) Option { return func(c *Config) { c.BarrierAlgo = name } }

// NewConfig returns the calibrated configuration for a P-processor
// machine with clusters of c processors and the paper's parameters —
// 1K-byte pages, a 64-entry software TLB, and a 1000-cycle inter-SSMP
// delay — then applies the options in order. When c == P the software
// layer is disabled, exactly as in the paper's 32-processor runs.
func NewConfig(p, c int, opts ...Option) Config {
	cfg := Config{
		P: p, C: c, PageSize: 1024, TLBSize: 64, Delay: 1000,
		Disabled: c == p,
		Protocol: core.DefaultCosts(),
		Cache: cache.Costs{
			Hit: 2, Local: 11, Remote: 38, TwoParty: 42,
			ThreeParty: 63, Software: 425, CleanPerLine: 40,
		},
		CacheHW: cache.DefaultParams(),
		Msg: msg.Costs{
			SendOverhead: 100, HandlerEntry: 500, PerHop: 2,
			BytesPerCycle: 1, InterDelay: 1000, InterOverhead: 800,
			Topology: DefaultTopology,
		},
		Sync:        msync.DefaultCosts(),
		LockAlgo:    DefaultLockAlgo,
		BarrierAlgo: DefaultBarrierAlgo,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Validate reports whether the configuration describes a machine that
// can be built: a positive processor count divided evenly into SSMPs,
// and a power-of-two page size no smaller than a cache line.
func (cfg Config) Validate() error {
	if cfg.P <= 0 || cfg.C <= 0 || cfg.P%cfg.C != 0 {
		return fmt.Errorf("bad machine shape P=%d C=%d: need P > 0 and C > 0 with C dividing P", cfg.P, cfg.C)
	}
	if ps := cfg.PageSize; ps <= 0 || ps&(ps-1) != 0 || ps < cfg.CacheHW.LineSize {
		return fmt.Errorf("bad page size %d: need a power of two of at least %d bytes (one cache line)", ps, cfg.CacheHW.LineSize)
	}
	return nil
}

// Machine is one assembled DSSMP. It and everything it owns are driven
// by one goroutine; none of it is safe for concurrent use.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Net   *msg.Network
	DSM   *core.System
	Sync  *msync.System
	Stats *stats.Collector
	Procs []*sim.Proc

	bodies []func(c *Ctx)
	ran    bool
}

// NewMachine assembles a machine. The configuration's Msg.InterDelay is
// overridden by Cfg.Delay so callers set the LAN latency in one place.
// It panics on a configuration Validate rejects.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic("harness: " + err.Error())
	}
	cfg.Msg.InterDelay = cfg.Delay
	m := &Machine{Cfg: cfg, Eng: sim.NewEngine(), bodies: make([]func(*Ctx), cfg.P)}
	for i := 0; i < cfg.P; i++ {
		i := i
		m.Procs = append(m.Procs, m.Eng.NewProc(i, 0, func(p *sim.Proc) {
			if m.bodies[i] != nil {
				m.bodies[i](&Ctx{m: m, Proc: p, ID: i, NProcs: cfg.P})
			}
		}))
	}
	m.Net = msg.NewNetwork(m.Eng, m.Procs, cfg.C, cfg.Msg)
	m.Stats = stats.NewCollector(cfg.P)
	st := m.Stats
	// Attach the observability spine before the subsystems construct, so
	// their gauges and histograms register on the observer's registry
	// and the profiler (if armed) sees every charge from cycle zero.
	st.Use(cfg.Obs)
	m.Net.OnHandler = func(proc int, cyc sim.Time) { st.Charge(proc, stats.MGS, cyc) }
	m.Net.AttachFault(cfg.Fault, &st.Fault)
	m.Net.Obs = cfg.Obs
	space := vm.NewSpace(cfg.PageSize, cfg.P)
	m.DSM = core.New(m.Eng, m.Net, space, st, m.Procs, core.Config{
		NProcs: cfg.P, ClusterSize: cfg.C, PageSize: cfg.PageSize,
		TLBSize: cfg.TLBSize, Costs: cfg.Protocol,
		CacheParams: cfg.CacheHW, CacheCosts: cfg.Cache,
		Disabled: cfg.Disabled,
	})
	m.DSM.Obs = cfg.Obs
	la, err := algo.LockByName(cfg.LockAlgo)
	if err != nil {
		panic("harness: " + err.Error())
	}
	ba, err := algo.BarrierByName(cfg.BarrierAlgo)
	if err != nil {
		panic("harness: " + err.Error())
	}
	m.Sync = msync.New(m.Eng, m.DSM, m.Net, st, cfg.Sync, la, ba)
	m.Sync.Obs = cfg.Obs
	return m
}

// Alloc reserves shared virtual memory (page aligned).
func (m *Machine) Alloc(bytes int) vm.Addr { return m.DSM.Space().AllocPages(bytes) }

// AllocPacked reserves shared memory with the given alignment, packed
// against the previous allocation (so small objects share pages — the
// false-sharing layout).
func (m *Machine) AllocPacked(bytes, align int) vm.Addr {
	return m.DSM.Space().Alloc(bytes, align)
}

// AllocHomed reserves a page-aligned region whose pages are explicitly
// placed: homeOf(i) names the processor whose memory holds the region's
// i-th page. This is the distributed-array layout of the paper's
// applications (each block lives in its owner's memory).
func (m *Machine) AllocHomed(bytes int, homeOf func(page int) int) vm.Addr {
	sp := m.DSM.Space()
	base := sp.AllocPages(bytes)
	npages := (bytes + m.Cfg.PageSize - 1) / m.Cfg.PageSize
	for i := 0; i < npages; i++ {
		sp.SetHome(sp.PageOf(base)+vm.Page(i), homeOf(i)%m.Cfg.P)
	}
	return base
}

// SetF64 initializes a shared float64 without simulated cost (setup).
func (m *Machine) SetF64(va vm.Addr, v float64) {
	m.DSM.BackdoorStore64(va, math.Float64bits(v))
}

// GetF64 reads a shared float64 without simulated cost (verification).
func (m *Machine) GetF64(va vm.Addr) float64 {
	return math.Float64frombits(m.DSM.BackdoorLoad64(va))
}

// SetI64 initializes a shared int64 without simulated cost.
func (m *Machine) SetI64(va vm.Addr, v int64) {
	m.DSM.BackdoorStore64(va, uint64(v))
}

// GetI64 reads a shared int64 without simulated cost.
func (m *Machine) GetI64(va vm.Addr) int64 {
	return int64(m.DSM.BackdoorLoad64(va))
}

// Result summarizes one run.
type Result struct {
	// Cycles is the parallel execution time: the final virtual time.
	Cycles sim.Time
	// Breakdown is the per-category cycle attribution (Figures 6–10).
	Breakdown stats.Breakdown
	// LockHits/LockTotal aggregate MGS lock behaviour (Figure 11).
	LockHits, LockTotal int64
	// Message traffic.
	InterMsgs, InterBytes, IntraMsgs int64
	// LinkWait is the cycles messages spent queued behind busy links on
	// contended topologies (0 under the default Uniform LAN).
	LinkWait int64
	// Dir is the Server-side directory footprint at end of run
	// (core.System.DirectoryStats): how many pages hold server state, how
	// many sparse per-SSMP copy records exist, and how many directories
	// collapsed to the coarse cluster vector. Deterministic, so it rides
	// the bit-identity comparisons like every other field.
	Dir core.DirectoryStats
	// Counters are the protocol event counters, sorted.
	Counters []string
	// Fault is the fault-injection transport's accounting (all zeros on
	// fault-free runs).
	Fault stats.Fault
}

// Run executes body on every processor and collects the result. A
// machine runs once.
func (m *Machine) Run(body func(c *Ctx)) (Result, error) {
	return m.RunPer(func(i int) func(c *Ctx) { return body })
}

// RunPer executes bodyFor(i) on processor i.
func (m *Machine) RunPer(bodyFor func(i int) func(c *Ctx)) (Result, error) {
	if m.ran {
		panic("harness: machine already ran")
	}
	m.ran = true
	for i := range m.bodies {
		m.bodies[i] = bodyFor(i)
	}
	if err := m.Eng.Run(); err != nil {
		return Result{}, err
	}
	hits, total := m.Sync.LockStats()
	return Result{
		Cycles:     m.lastClock(),
		Breakdown:  m.Stats.Breakdown(),
		LockHits:   hits,
		LockTotal:  total,
		InterMsgs:  m.Net.Counters.InterMsgs,
		InterBytes: m.Net.Counters.InterBytes,
		IntraMsgs:  m.Net.Counters.IntraMsgs,
		LinkWait:   m.Net.Counters.LinkWaitCycles,
		Dir:        m.DSM.DirectoryStats(),
		Counters:   m.Stats.Counters(),
		Fault:      m.Stats.Fault,
	}, nil
}

func (m *Machine) lastClock() sim.Time {
	var t sim.Time
	for _, p := range m.Procs {
		if p.Clock() > t {
			t = p.Clock()
		}
	}
	return t
}
