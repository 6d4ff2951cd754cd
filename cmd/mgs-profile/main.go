// mgs-profile runs applications with the cycle-attribution profiler
// armed and reports where the simulated cycles went: which pages, locks,
// and barriers each processor spent its User/Lock/Barrier/MGS time on.
//
// Usage:
//
//	mgs-profile                          # water and tsp, P=8 C=2, small
//	mgs-profile -apps water,tsp,jacobi -p 16 -c 4
//	mgs-profile -out profdir -top 20
//
// Per application it writes, under -out:
//
//	<app>.trace.json   Chrome trace_event JSON (chrome://tracing, Perfetto):
//	                   one track per processor plus one per software engine,
//	                   timestamped in virtual cycles
//	<app>.collapsed    collapsed-stack ("folded") profile for flamegraph.pl
//	                   and speedscope: proc3;MGS;page:42 1234
//
// and prints the run's breakdown and the per-object heat report to
// stdout. The breakdown and the heat report are two views of one cycle
// store (obs.Profiler), so they agree by construction.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/harness"
	"mgs/internal/obs"
	"mgs/internal/stats"
)

func main() {
	t := cli.New("mgs-profile").ShapeFlags(8, 2, true)
	var (
		apps = flag.String("apps", "water,tsp", "comma-separated applications to profile")
		out  = flag.String("out", "profile", "output directory for trace and collapsed files")
		top  = flag.Int("top", 10, "heat-report lines per object kind")
	)
	t.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	mk := t.Apps()
	for _, name := range strings.Split(*apps, ",") {
		if err := profileOne(strings.TrimSpace(name), t, mk, *out, *top); err != nil {
			log.Fatal(err)
		}
	}
}

func profileOne(name string, t *cli.Tool, mk func(string) harness.App, out string, top int) error {
	chrome := obs.NewChromeSink(t.P)
	o := obs.New().AddSink(chrome).EnableProfiling()
	m := harness.NewMachine(t.Config(harness.WithObserver(o)))
	a := mk(name)
	a.Setup(m)
	res, err := m.Run(a.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := a.Verify(m); err != nil {
		return fmt.Errorf("%s verification: %w", name, err)
	}
	prof := o.Profiler()

	fmt.Printf("%s on P=%d C=%d: %d cycles (%s)\n",
		name, t.P, t.C, res.Cycles, res.Breakdown.String())
	for _, kind := range []obs.ObjKind{obs.ObjPage, obs.ObjLock, obs.ObjBarrier} {
		heat := prof.Heat(kind)
		if len(heat) == 0 {
			continue
		}
		fmt.Printf("  hottest %ss (%d total):\n", kind, len(heat))
		for i, h := range heat {
			if i >= top {
				fmt.Printf("    ... %d more\n", len(heat)-top)
				break
			}
			var parts []string
			for c, cyc := range h.ByComp {
				if cyc > 0 {
					parts = append(parts, fmt.Sprintf("%s %d", stats.Category(c), cyc))
				}
			}
			fmt.Printf("    %s:%-6d %12d cycles  (%s)\n", kind, h.ID, h.Cycles, strings.Join(parts, ", "))
		}
	}

	tracePath := filepath.Join(out, name+".trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if _, err := chrome.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	collapsedPath := filepath.Join(out, name+".collapsed")
	f, err = os.Create(collapsedPath)
	if err != nil {
		return err
	}
	if err := prof.WriteCollapsed(f, func(c int) string { return stats.Category(c).String() }); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  wrote %s (%d events), %s\n", tracePath, chrome.Len(), collapsedPath)
	return nil
}
