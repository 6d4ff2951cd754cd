// Package cli factors out the flag surface the mgs command-line tools
// share: every simulation tool picks an application, a machine shape
// (-p, -c), a problem size (-small), and — for the sweep-style tools —
// a worker count and CSV switch. Before this package each main
// re-declared the same flags with drifting defaults; now a tool states
// its defaults once and the registration, parsing side effects, and
// config construction live here.
package cli

import (
	"flag"
	"log"
	"slices"
	"strings"

	"mgs/internal/exp"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/msync/algo"
)

// Tool holds the shared flag values of one mgs command-line tool.
// Register the flag groups a tool needs (MachineFlags, SweepFlags),
// call flag.Parse via Parse, then read the fields.
type Tool struct {
	// App is the -app selection (or -apps list for list-style tools).
	App string
	// P and C are the machine shape: total processors and cluster size.
	P, C int
	// Small selects the reduced problem sizes (-small).
	Small bool
	// Workers is the -workers concurrency for sweep-style tools.
	Workers int
	// Topology is the -topology inter-SSMP interconnect selection
	// (uniform, mesh, fattree, tiered).
	Topology string
	// Lock and Barrier are the -lock / -barrier synchronization
	// algorithm selections (internal/msync/algo names).
	Lock, Barrier string
	// CSV selects machine-readable output (-csv).
	CSV bool

	hasApp      bool
	hasShape    bool
	hasC        bool
	hasWorkers  bool
	hasTopology bool
	hasSync     bool
}

// New configures the standard tool logging — bare messages prefixed
// with the tool name — and returns an empty Tool.
func New(name string) *Tool {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	return &Tool{}
}

// MachineFlags registers -app, -p, -c, and -small with the tool's
// defaults. A cDef <= 0 skips -c (for tools that sweep cluster sizes
// or do not take one).
func (t *Tool) MachineFlags(appDef string, pDef, cDef int, smallDef bool) *Tool {
	flag.StringVar(&t.App, "app", appDef, "application: "+strings.Join(AppList(), ", "))
	t.hasApp = true
	return t.ShapeFlags(pDef, cDef, smallDef)
}

// ShapeFlags registers -p, -c, and -small only (for tools with their
// own application-selection flag). A cDef <= 0 skips -c.
func (t *Tool) ShapeFlags(pDef, cDef int, smallDef bool) *Tool {
	flag.IntVar(&t.P, "p", pDef, "total processors")
	t.hasShape = true
	if cDef > 0 {
		flag.IntVar(&t.C, "c", cDef, "processors per SSMP (cluster size)")
		t.hasC = true
	}
	flag.BoolVar(&t.Small, "small", smallDef, "use reduced problem sizes")
	flag.StringVar(&t.Topology, "topology", "uniform",
		"inter-SSMP interconnect: "+strings.Join(msg.TopologyNames(), ", "))
	t.hasTopology = true
	return t.SyncFlags()
}

// SyncFlags registers -lock and -barrier, the synchronization-algorithm
// selection every simulation tool shares. ShapeFlags includes it; tools
// without shape flags (mgs-check) call it directly.
func (t *Tool) SyncFlags() *Tool {
	if t.hasSync {
		return t
	}
	flag.StringVar(&t.Lock, "lock", algo.DefaultLock,
		"lock algorithm: "+strings.Join(algo.LockNames(), ", "))
	flag.StringVar(&t.Barrier, "barrier", algo.DefaultBarrier,
		"barrier algorithm: "+strings.Join(algo.BarrierNames(), ", "))
	t.hasSync = true
	return t
}

// SweepFlags registers -workers and -csv for tools that run many
// independent simulations.
func (t *Tool) SweepFlags() *Tool {
	flag.IntVar(&t.Workers, "workers", 0, "concurrent runs (0 = GOMAXPROCS, 1 = sequential)")
	flag.BoolVar(&t.CSV, "csv", false, "emit CSV rows instead of formatted output")
	t.hasWorkers = true
	return t
}

// Parse parses the process flags, rejects a bad -app or machine shape,
// and applies the post-parse side effects (the sweep worker count and
// the topology and synchronization defaults). Bad input ends the
// process with a one-line message and a nonzero exit.
func (t *Tool) Parse() *Tool {
	flag.Parse()
	if t.hasApp && t.App != "" && !slices.Contains(AppList(), t.App) {
		log.Fatalf("unknown app %q (have %s)", t.App, strings.Join(AppList(), " "))
	}
	if t.hasShape {
		c := 1 // tools without -c choose their own cluster sizes
		if t.hasC {
			c = t.C
		}
		if err := harness.NewConfig(t.P, c).Validate(); err != nil {
			log.Fatal(err)
		}
	}
	if t.hasWorkers {
		harness.SweepWorkers = t.Workers
	}
	if t.hasTopology {
		topo, err := msg.ByName(t.Topology)
		if err != nil {
			log.Fatal(err)
		}
		if t.Topology != "" && t.Topology != "uniform" {
			harness.DefaultTopology = topo
		}
	}
	if t.hasSync {
		if _, err := algo.LockByName(t.Lock); err != nil {
			log.Fatal(err)
		}
		if _, err := algo.BarrierByName(t.Barrier); err != nil {
			log.Fatal(err)
		}
		harness.DefaultLockAlgo = t.Lock
		harness.DefaultBarrierAlgo = t.Barrier
	}
	return t
}

// Apps returns the application constructor selected by -small.
func (t *Tool) Apps() func(string) harness.App {
	if t.Small {
		return exp.SmallApp
	}
	return exp.NewApp
}

// Config builds the paper's experiment configuration for the parsed
// machine shape, with any functional options applied on top. A
// configuration Validate rejects (a bad -pagesize, say) ends the
// process like a bad flag does.
func (t *Tool) Config(opts ...harness.Option) harness.Config {
	cfg := exp.Config(t.P, t.C, opts...)
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	return cfg
}

// AppList names every application the exp constructors accept, the
// paper suite first.
func AppList() []string {
	return append(append([]string{}, exp.AppNames...),
		"water-kernel", "water-kernel-tiled", "lu", "serve", "syncbench")
}
