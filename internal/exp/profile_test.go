package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mgs/internal/harness"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// TestProfilingOnlyObserves runs every small application at P=8 C=2
// with no observer and with a profiling observer. Turning profiling on
// only splits each processor's cycles over object rows of the one cycle
// store, so the two runs must agree on the whole Result, the
// per-processor breakdown and the final memory, and the profile's
// samples must sum per (processor, component) to the breakdown.
func TestProfilingOnlyObserves(t *testing.T) {
	names := append(append([]string{}, AppNames...), "water-kernel", "water-kernel-tiled", "lu", "serve", "syncbench")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			plain, plainMem, err := harness.RunAppMem(SmallApp(name), Config(8, 2))
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New().EnableProfiling()
			prof, profMem, err := harness.RunAppMem(SmallApp(name), Config(8, 2, harness.WithObserver(o)))
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fmt.Sprintf("%+v", plain), fmt.Sprintf("%+v", prof); a != b {
				t.Errorf("Result differs with profiling on:\n off %s\n  on %s", a, b)
			}
			if !reflect.DeepEqual(plain.Breakdown.PerProc, prof.Breakdown.PerProc) {
				t.Errorf("PerProc differs with profiling on:\n off %v\n  on %v",
					plain.Breakdown.PerProc, prof.Breakdown.PerProc)
			}
			if !bytes.Equal(plainMem, profMem) {
				t.Error("final memory differs with profiling on")
			}

			sum := make([][stats.NumCategories]sim.Time, len(prof.Breakdown.PerProc))
			objects := 0
			for _, s := range o.Profiler().Samples() {
				sum[s.Key.Proc][s.Key.Comp] += s.Cycles
				if s.Key.Kind != obs.ObjNone {
					objects++
				}
			}
			if !reflect.DeepEqual(sum, prof.Breakdown.PerProc) {
				t.Errorf("samples summed by (proc, comp) differ from PerProc:\n samples %v\n PerProc %v",
					sum, prof.Breakdown.PerProc)
			}
			if objects == 0 {
				t.Error("profiling on attributed no cycles to any page, lock or barrier")
			}
		})
	}
}
