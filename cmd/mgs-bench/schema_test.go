package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// keyPaths flattens a decoded JSON value into its set of key paths
// (arrays contribute their element shape once), the structural schema
// of the document.
func keyPaths(v any, prefix string, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			keyPaths(child, prefix+"."+k, out)
		}
	case []any:
		if len(x) == 0 {
			out[prefix+"[]"] = true
			return
		}
		keyPaths(x[0], prefix+"[]", out)
	default:
		out[prefix] = true
	}
}

func sortedPaths(data []byte, t *testing.T) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	m := map[string]bool{}
	keyPaths(v, "", m)
	paths := make([]string, 0, len(m))
	for p := range m {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// TestCommittedReportSchema guards the committed BENCH_sim.json against
// schema drift in either direction: the file must decode into Report
// with no unknown fields (the file is not ahead of the code), and
// re-encoding the decoded report must produce the same key paths (the
// file is not behind the code — a new Report field fails here until the
// file is regenerated).
func TestCommittedReportSchema(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_sim.json does not match the Report schema: %v", err)
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, want := sortedPaths(raw, t), sortedPaths(enc, t)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCH_sim.json schema drifted from the Report type:\nfile: %v\ncode: %v\nregenerate with: go run ./cmd/mgs-bench", got, want)
	}
}

// TestCommittedReportContents pins the parts of the committed report
// downstream tracking keys on: the host context, the benchmark suite
// and the scale curve's machine sizes.
func TestCommittedReportContents(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	wantBench := []string{
		"TLBLookup", "ComputeDiffClean", "ComputeDiffSparse",
		"ComputeDiffDense", "ComputeDiffOwned", "EngineDispatch", "AccessFastPath",
	}
	var names []string
	for _, b := range rep.Benchmarks {
		names = append(names, b.Name)
		switch b.Name {
		case "ComputeDiffClean", "ComputeDiffSparse", "ComputeDiffDense":
			if b.AllocsPerOp != 0 {
				t.Errorf("%s: committed report records %d allocs/op; the buffered diff path must be allocation-free", b.Name, b.AllocsPerOp)
			}
		case "ComputeDiffOwned":
			if b.AllocsPerOp > 2 {
				t.Errorf("%s: committed report records %d allocs/op; the owned form's budget is the clone's 2", b.Name, b.AllocsPerOp)
			}
		}
	}
	if !reflect.DeepEqual(names, wantBench) {
		t.Errorf("benchmark suite drifted: %v, want %v", names, wantBench)
	}
	var host map[string]json.RawMessage
	if err := json.Unmarshal(raw, &struct {
		Host *map[string]json.RawMessage `json:"host"`
	}{&host}); err != nil {
		t.Fatal(err)
	}
	var hostKeys []string
	for k := range host {
		hostKeys = append(hostKeys, k)
	}
	sort.Strings(hostKeys)
	if want := []string{"go_version", "gomaxprocs", "num_cpu"}; !reflect.DeepEqual(hostKeys, want) {
		t.Errorf("host keys drifted: %v, want %v", hostKeys, want)
	}
	if rep.Host.NumCPU < 1 || rep.Host.GoMaxProcs < 1 || rep.Host.GoVersion == "" {
		t.Errorf("report must record its host context: %+v", rep.Host)
	}
	var scaleP []int
	for _, sc := range rep.Scale {
		scaleP = append(scaleP, sc.P)
		if sc.Topology != "tiered" {
			t.Errorf("scale P=%d ran on %q, want tiered", sc.P, sc.Topology)
		}
		if len(sc.Points) < 3 {
			t.Errorf("scale P=%d: %d points, want the framework's minimum of 3", sc.P, len(sc.Points))
		}
		for _, pt := range sc.Points {
			if pt.DirPages > 0 && pt.DirRmt > 8*pt.DirPages {
				t.Errorf("scale P=%d C=%d: committed report records a non-sparse directory (%d entries / %d pages)",
					sc.P, pt.C, pt.DirRmt, pt.DirPages)
			}
			if pt.DirPages > 0 && pt.DenseBytes <= pt.DirBytes {
				t.Errorf("scale P=%d C=%d: dense equivalent %dB not above measured %dB",
					sc.P, pt.C, pt.DenseBytes, pt.DirBytes)
			}
		}
	}
	if !reflect.DeepEqual(scaleP, []int{256, 1024}) {
		t.Errorf("scale curve machine sizes drifted: %v, want [256 1024]", scaleP)
	}
}
