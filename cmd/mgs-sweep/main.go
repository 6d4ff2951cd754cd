// mgs-sweep regenerates the MGS paper's evaluation: Table 4, the
// cluster-size sweeps behind Figures 6–10, the lock hit ratios of
// Figure 11, the Water-kernel comparison of Figure 12, and the design
// ablations from DESIGN.md.
//
// Usage:
//
//	mgs-sweep -table4
//	mgs-sweep -app water            one figure sweep (6-10)
//	mgs-sweep -fig11
//	mgs-sweep -fig12
//	mgs-sweep -ablation 1writer|serialinv|update|lazy|mesh [-app water]
//	mgs-sweep -ablation pagesize   [-app tsp] [-c 4]
//
// Common flags: -p 32, -small (reduced sizes), -all (figures 6-12),
// -csv (machine-readable output for plotting), -workers N (concurrent
// sweep points; 0 = GOMAXPROCS, 1 = sequential — output is identical
// either way, each point is an independent deterministic simulation).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"mgs/internal/cli"
	"mgs/internal/exp"
	"mgs/internal/framework"
	"mgs/internal/harness"
	"mgs/internal/stats"
)

// asCSV switches all output to CSV rows on stdout.
var asCSV bool

// emitCSV writes one CSV record, converting every field with %v.
func emitCSV(fields ...any) {
	w := csv.NewWriter(os.Stdout)
	rec := make([]string, len(fields))
	for i, f := range fields {
		switch v := f.(type) {
		case float64:
			rec[i] = strconv.FormatFloat(v, 'g', 6, 64)
		default:
			rec[i] = fmt.Sprintf("%v", f)
		}
	}
	if err := w.Write(rec); err != nil {
		log.Fatal(err)
	}
	w.Flush()
}

func main() {
	t := cli.New("mgs-sweep").MachineFlags("", 32, 4, false).SweepFlags()
	var (
		table4   = flag.Bool("table4", false, "reproduce Table 4")
		fig11    = flag.Bool("fig11", false, "reproduce Figure 11 (lock hit ratios)")
		fig12    = flag.Bool("fig12", false, "reproduce Figure 12 (Water kernel)")
		all      = flag.Bool("all", false, "reproduce Figures 6-12")
		ablation = flag.String("ablation", "", "ablation: 1writer, serialinv, update, pagesize, mesh, lazy")
	)
	t.Parse()
	asCSV = t.CSV
	mk := t.Apps()

	switch {
	case *table4:
		runTable4(t.P, mk)
	case *fig11:
		runFig11(t.P, mk)
	case *fig12:
		runFig12(t.P)
	case *ablation != "":
		runAblation(*ablation, t.App, t.P, t.C, mk)
	case *all:
		for _, name := range exp.AppNames {
			runFigure(name, t.P, mk)
		}
		runFig11(t.P, mk)
		runFig12(t.P)
	case t.App != "":
		runFigure(t.App, t.P, mk)
	default:
		flag.Usage()
	}
}

func runTable4(p int, mk func(string) harness.App) {
	rows, err := exp.Table4(p, mk)
	if err != nil {
		log.Fatal(err)
	}
	if asCSV {
		emitCSV("app", "seq_cycles", "par_cycles", "speedup")
		for _, r := range rows {
			emitCSV(r.App, r.Seq, r.Par, r.Speedup)
		}
		return
	}
	fmt.Printf("Table 4: applications, sequential cycles, speedup on %d processors\n", p)
	for _, r := range rows {
		fmt.Printf("  %-12s seq %12d cycles   S%d = %5.1f\n", r.App, r.Seq, p, r.Speedup)
	}
}

func runFigure(name string, p int, mk func(string) harness.App) {
	points, m, err := exp.FigureSweep(name, p, mk)
	if err != nil {
		log.Fatal(err)
	}
	if asCSV {
		emitCSV("app", "c", "cycles", "user", "lock", "barrier", "mgs")
		for _, pt := range points {
			b := pt.Res.Breakdown
			emitCSV(name, pt.C, pt.Res.Cycles,
				b.Avg[stats.User], b.Avg[stats.Lock], b.Avg[stats.Barrier], b.Avg[stats.MGS])
		}
		return
	}
	fmt.Printf("%s: runtime breakdown vs cluster size (P=%d)\n", name, p)
	printBreakdowns(points)
	fmt.Printf("  %s\n\n", m)
}

func printBreakdowns(points []harness.SweepPoint) {
	fmt.Printf("  %-4s %12s  %10s %10s %10s %10s\n", "C", "cycles", "User", "Lock", "Barrier", "MGS")
	for _, pt := range points {
		b := pt.Res.Breakdown
		fmt.Printf("  %-4d %12d  %10.0f %10.0f %10.0f %10.0f\n",
			pt.C, pt.Res.Cycles,
			b.Avg[stats.User], b.Avg[stats.Lock], b.Avg[stats.Barrier], b.Avg[stats.MGS])
	}
}

func runFig11(p int, mk func(string) harness.App) {
	names := []string{"tsp", "water", "barnes-hut"}
	out, err := exp.LockHitSweep(names, p, mk)
	if err != nil {
		log.Fatal(err)
	}
	if asCSV {
		emitCSV("app", "c", "hit_ratio")
		for _, name := range names {
			for _, pt := range out[name] {
				emitCSV(name, pt.C, pt.Ratio)
			}
		}
		return
	}
	fmt.Printf("Figure 11: MGS lock hit ratio vs cluster size (P=%d)\n", p)
	for _, name := range names {
		fmt.Printf("  %-12s", name)
		for _, pt := range out[name] {
			fmt.Printf("  C=%d: %.2f", pt.C, pt.Ratio)
		}
		fmt.Println()
	}
}

func runFig12(p int) {
	// 16*p is the smallest molecule count whose tiles stay page aligned
	// at every cluster size (C=1 makes p SSMPs and tiles span 16
	// molecules), so -small cannot shrink Figure 12 further.
	n := 16 * p
	plain, tiled, err := exp.Fig12(p, n)
	if err != nil {
		log.Fatal(err)
	}
	if asCSV {
		emitCSV("variant", "c", "cycles")
		for _, pt := range plain {
			emitCSV("plain", pt.C, pt.Res.Cycles)
		}
		for _, pt := range tiled {
			emitCSV("tiled", pt.C, pt.Res.Cycles)
		}
		return
	}
	fmt.Printf("Figure 12: Water kernel, %d molecules, P=%d\n", n, p)
	fmt.Println(" unoptimized:")
	printBreakdowns(plain)
	fmt.Printf("  %s\n", framework.Analyze(exp.FrameworkPoints(plain)))
	fmt.Println(" tiled:")
	printBreakdowns(tiled)
	fmt.Printf("  %s\n", framework.Analyze(exp.FrameworkPoints(tiled)))
}

func runAblation(kind, app string, p, c int, mk func(string) harness.App) {
	if app == "" {
		app = "water"
	}
	if ab, ok := exp.OnOffAblations[kind]; ok {
		base, changed, err := exp.AblationOnOff(app, p, ab.Change, mk)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s, %s (P=%d)\n", ab.Title, app, p)
		printOnOff(ab.Base, base, ab.Changed, changed)
		return
	}
	if kind != "pagesize" {
		log.Fatalf("unknown ablation %q", kind)
	}
	pts, err := exp.AblationPageSize(app, p, c, []int{256, 512, 1024, 2048, 4096}, mk)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("page size ablation, %s (P=%d, C=%d)\n", app, p, c)
	for _, pt := range pts {
		fmt.Printf("  %5dB pages: %12d cycles\n", pt.PageSize, pt.Cycles)
	}
}

func printOnOff(an string, a []harness.SweepPoint, bn string, b []harness.SweepPoint) {
	if asCSV {
		emitCSV("c", an, bn)
		for i := range a {
			emitCSV(a[i].C, a[i].Res.Cycles, b[i].Res.Cycles)
		}
		return
	}
	fmt.Printf("  %-4s %14s %14s\n", "C", an, bn)
	for i := range a {
		fmt.Printf("  %-4d %14d %14d\n", a[i].C, a[i].Res.Cycles, b[i].Res.Cycles)
	}
}
