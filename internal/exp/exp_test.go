package exp

import (
	"testing"

	"mgs/internal/framework"
	"mgs/internal/harness"
	"mgs/internal/stats"
)

func TestTable3RunsAndIsOrdered(t *testing.T) {
	mi := Table3()
	if mi.ReadMiss <= mi.TLBFill {
		t.Errorf("read miss (%d) should exceed TLB fill (%d)", mi.ReadMiss, mi.TLBFill)
	}
	if mi.WriteMiss <= mi.ReadMiss {
		t.Errorf("write miss (%d) should exceed read miss (%d)", mi.WriteMiss, mi.ReadMiss)
	}
}

func TestTable4Small(t *testing.T) {
	rows, err := Table4(4, SmallApp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%s: speedup %v", r.App, r.Speedup)
		}
		// The regular apps must gain from 4 tightly-coupled processors.
		if r.App != "tsp" && r.Speedup < 1.5 {
			t.Errorf("%s: speedup %.2f on 4 procs, want >= 1.5", r.App, r.Speedup)
		}
	}
}

func TestFigureSweepSmall(t *testing.T) {
	points, m, err := FigureSweep("jacobi", 4, SmallApp)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 { // C = 1, 2, 4
		t.Fatalf("got %d points", len(points))
	}
	if m.BreakupPenalty < 0 {
		t.Errorf("negative breakup penalty %v", m.BreakupPenalty)
	}
	// Software DSM at C=1 cannot be faster than pure hardware at C=P.
	if points[0].Res.Cycles < points[2].Res.Cycles {
		t.Errorf("C=1 (%d) faster than C=P (%d)?", points[0].Res.Cycles, points[2].Res.Cycles)
	}
}

func TestLockHitSweepSmall(t *testing.T) {
	out, err := LockHitSweep([]string{"water"}, 4, SmallApp)
	if err != nil {
		t.Fatal(err)
	}
	pts := out["water"]
	if len(pts) != 2 { // C = 1, 2
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Ratio < 0 || p.Ratio > 1 {
			t.Errorf("C=%d ratio %v out of range", p.C, p.Ratio)
		}
	}
	// Hit ratio must grow with cluster size (Figure 11's headline).
	if pts[1].Ratio < pts[0].Ratio {
		t.Errorf("hit ratio fell with cluster size: %v", pts)
	}
}

func TestFig12Small(t *testing.T) {
	plain, tiled, err := Fig12(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// At C=1 the tiled kernel must win big (perfect multigrain
	// locality vs lock-churning page coherence).
	if tiled[0].Res.Cycles*2 > plain[0].Res.Cycles {
		t.Errorf("tiled C=1 (%d) not at least 2x faster than plain (%d)",
			tiled[0].Res.Cycles, plain[0].Res.Cycles)
	}
}

// TestAblationOnOffSmall runs every on/off ablation at P=4 (C=1 and
// C=2) and checks the shape each one is known for.
func TestAblationOnOffSmall(t *testing.T) {
	rows := []struct {
		kind, app string
		// check compares the default (base) and changed runs at one C.
		check func(t *testing.T, base, changed harness.SweepPoint)
	}{
		{"1writer", "water", nil},
		{"serialinv", "water", func(t *testing.T, serial, par harness.SweepPoint) {
			// Serializing invalidations can never beat overlapping them.
			if serial.Res.Cycles < par.Res.Cycles {
				t.Errorf("C=%d: serial (%d) faster than parallel (%d)",
					serial.C, serial.Res.Cycles, par.Res.Cycles)
			}
		}},
		{"update", "water", nil},
		{"mesh", "jacobi", func(t *testing.T, uniform, mesh harness.SweepPoint) {
			if mesh.Res.Cycles == uniform.Res.Cycles {
				t.Errorf("C=%d: mesh timing identical to uniform (%d); topology had no effect",
					mesh.C, mesh.Res.Cycles)
			}
		}},
		{"lazy", "water", func(t *testing.T, eager, lazy harness.SweepPoint) {
			// Water's migratory locking is lazy's best case: it must win at C=1.
			if lazy.C == 1 && lazy.Res.Cycles >= eager.Res.Cycles {
				t.Errorf("C=1: lazy (%d) not faster than eager (%d)",
					lazy.Res.Cycles, eager.Res.Cycles)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.kind, func(t *testing.T) {
			base, changed, err := AblationOnOff(row.app, 4, OnOffAblations[row.kind].Change, SmallApp)
			if err != nil {
				t.Fatal(err)
			}
			if len(base) != 2 || len(changed) != 2 {
				t.Fatalf("point counts = %d/%d, want 2/2", len(base), len(changed))
			}
			for i := range base {
				if base[i].C != changed[i].C || base[i].Res.Cycles <= 0 || changed[i].Res.Cycles <= 0 {
					t.Fatalf("point %d: base C=%d %d cycles, changed C=%d %d cycles",
						i, base[i].C, base[i].Res.Cycles, changed[i].C, changed[i].Res.Cycles)
				}
				if row.check != nil {
					row.check(t, base[i], changed[i])
				}
			}
		})
	}
	if len(rows) != len(OnOffAblations) {
		t.Errorf("%d rows for %d ablations", len(rows), len(OnOffAblations))
	}
}

func TestAblationPageSizeSmall(t *testing.T) {
	pts, err := AblationPageSize("jacobi", 4, 2, []int{512, 1024, 2048}, SmallApp)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestNewAppCoversAll(t *testing.T) {
	for _, n := range append(append([]string{}, AppNames...), "water-kernel", "water-kernel-tiled") {
		if NewApp(n) == nil || SmallApp(n) == nil {
			t.Fatalf("app %q missing", n)
		}
	}
}

var _ harness.App = (*nilApp)(nil)

type nilApp struct{}

func (*nilApp) Name() string                  { return "" }
func (*nilApp) Setup(*harness.Machine)        {}
func (*nilApp) Body(*harness.Ctx)             {}
func (*nilApp) Verify(*harness.Machine) error { return nil }

func TestFrameworkPointsMatchSweep(t *testing.T) {
	points, _, err := FigureSweep("matmul", 4, SmallApp)
	if err != nil {
		t.Fatal(err)
	}
	fp := FrameworkPoints(points)
	if len(fp) != len(points) {
		t.Fatalf("framework points = %d, sweep points = %d", len(fp), len(points))
	}
	for i := range fp {
		if fp[i].C != points[i].C || fp[i].Time != float64(points[i].Res.Cycles) {
			t.Fatalf("point %d mismatch: %+v vs %+v", i, fp[i], points[i])
		}
	}
}

func TestUnknownAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewApp of unknown name did not panic")
		}
	}()
	NewApp("no-such-app")
}

// TestHeadlineShapes pins the qualitative results the reproduction is
// about, at test scale (P=8, reduced inputs) with comfortable margins:
// which applications suffer crossing the hardware/software boundary,
// which run flat, and which runtime component dominates where. If a
// protocol change breaks one of the paper's figure shapes, this fails
// before any benchmark is run.
func TestHeadlineShapes(t *testing.T) {
	const p = 8
	sweepFor := func(name string) ([]harness.SweepPoint, framework.Metrics) {
		points, m, err := FigureSweep(name, p, SmallApp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return points, m
	}
	frac := func(pt harness.SweepPoint, cat stats.Category) float64 {
		return pt.Res.Breakdown.Avg[cat] / pt.Res.Breakdown.AvgTotal()
	}

	// Water (Figure 9): big breakup penalty, high multigrain potential,
	// synchronization + protocol dominated at C=1, monotone improvement.
	water, wm := sweepFor("water")
	if ratio := float64(water[0].Res.Cycles) / float64(water[len(water)-1].Res.Cycles); ratio < 3 {
		t.Errorf("water C1/CP = %.2f, want > 3 (large breakup penalty)", ratio)
	}
	if wm.MultigrainPotential < 0.5 {
		t.Errorf("water potential = %.2f, want > 0.5", wm.MultigrainPotential)
	}
	sync1 := frac(water[0], stats.Lock) + frac(water[0], stats.Barrier) + frac(water[0], stats.MGS)
	if sync1 < 0.6 {
		t.Errorf("water C=1 sync+MGS fraction = %.2f, want > 0.6", sync1)
	}
	for i := 1; i < len(water); i++ {
		if water[i].Res.Cycles > water[i-1].Res.Cycles {
			t.Errorf("water not monotone: C=%d (%d) > C=%d (%d)",
				water[i].C, water[i].Res.Cycles, water[i-1].C, water[i-1].Res.Cycles)
		}
	}

	// Matrix multiply (Figure 7): flat across the software region.
	matmul, _ := sweepFor("matmul")
	if ratio := float64(matmul[0].Res.Cycles) / float64(matmul[len(matmul)-1].Res.Cycles); ratio > 1.5 {
		t.Errorf("matmul C1/CP = %.2f, want < 1.5 (flat curve)", ratio)
	}

	// TSP (Figure 8): lock time is a major component at C=1 (the
	// centralized work queue's critical-section dilation).
	tsp, _ := sweepFor("tsp")
	if lf := frac(tsp[0], stats.Lock); lf < 0.3 {
		t.Errorf("tsp C=1 lock fraction = %.2f, want > 0.3", lf)
	}

	// Barnes-Hut (Figure 10): MGS protocol time dominates at C=1.
	barnes, _ := sweepFor("barnes-hut")
	if mf := frac(barnes[0], stats.MGS); mf < 0.4 {
		t.Errorf("barnes-hut C=1 MGS fraction = %.2f, want > 0.4", mf)
	}
}

// TestDeterministicReplay re-runs identical configurations and requires
// bit-identical results — cycles, breakdown, lock stats, counters. The
// engine's determinism claim (README) is enforced here end to end, for
// the eager default, the lazy extension, and a jittered run (jitter
// must shuffle orders deterministically, not randomly).
func TestDeterministicReplay(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*harness.Config)
	}{
		{"eager", func(*harness.Config) {}},
		{"lazy", func(c *harness.Config) { c.Protocol.LazyRelease = true }},
		{"jitter", func(c *harness.Config) { c.Msg.Jitter = 1200; c.Msg.JitterSeed = 5 }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			run := func() harness.Result {
				cfg := Config(8, 2)
				v.mut(&cfg)
				res, err := harness.RunApp(SmallApp("water"), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if a.Cycles != b.Cycles {
				t.Fatalf("cycles differ across identical runs: %d vs %d", a.Cycles, b.Cycles)
			}
			if a.LockHits != b.LockHits || a.LockTotal != b.LockTotal {
				t.Fatalf("lock stats differ: %d/%d vs %d/%d", a.LockHits, a.LockTotal, b.LockHits, b.LockTotal)
			}
			if a.InterMsgs != b.InterMsgs || a.InterBytes != b.InterBytes {
				t.Fatalf("traffic differs: %d/%d vs %d/%d", a.InterMsgs, a.InterBytes, b.InterMsgs, b.InterBytes)
			}
			if len(a.Counters) != len(b.Counters) {
				t.Fatalf("counter sets differ: %d vs %d", len(a.Counters), len(b.Counters))
			}
			for i := range a.Counters {
				if a.Counters[i] != b.Counters[i] {
					t.Fatalf("counter %q vs %q", a.Counters[i], b.Counters[i])
				}
			}
			for i := range a.Breakdown.PerProc {
				if a.Breakdown.PerProc[i] != b.Breakdown.PerProc[i] {
					t.Fatalf("proc %d breakdown differs", i)
				}
			}
		})
	}
}
