package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mgs/internal/harness"
)

// goldenRun is the committed fingerprint of one run: the simulated
// cycle count, a digest of the whole harness.Result, and a digest of the
// final shared memory (SHA-256, truncated to 64 bits).
type goldenRun struct {
	cycles   int64
	res, mem string
}

// golden pins every small application at two cluster sizes to numbers
// committed in the source, so a refactor of any layer must reproduce the
// simulation bit for bit across commits, not merely agree with itself
// inside one build. A mismatch prints the replacement entry; update it
// only for an intentional, explained change in simulated behaviour.
var golden = map[string]goldenRun{
	"jacobi/C=2":             {cycles: 283958, res: "bfea9f25d4712fcd", mem: "a4bca3366c001790"},
	"jacobi/C=4":             {cycles: 245952, res: "a64b5b13e3b12778", mem: "a4bca3366c001790"},
	"matmul/C=2":             {cycles: 433402, res: "6c316039e6462a4f", mem: "7cc474d76bd60bbd"},
	"matmul/C=4":             {cycles: 410500, res: "76d79f2e9b69403e", mem: "7cc474d76bd60bbd"},
	"tsp/C=2":                {cycles: 874290, res: "3050c47542a2e3c0", mem: "9f8f628212d9f253"},
	"tsp/C=4":                {cycles: 567438, res: "bba64179a6f70df0", mem: "9f8f628212d9f253"},
	"water/C=2":              {cycles: 5570339, res: "661a6293dbe398d5", mem: "211899e6f69d4327"},
	"water/C=4":              {cycles: 3324593, res: "501c9f74ca0923dc", mem: "211899e6f69d4327"},
	"barnes-hut/C=2":         {cycles: 1171210, res: "86aff872be710980", mem: "66075de5b72d121e"},
	"barnes-hut/C=4":         {cycles: 967046, res: "06252bdccd6feab9", mem: "66075de5b72d121e"},
	"water-kernel/C=2":       {cycles: 103827651, res: "b15a336189312fe7", mem: "ced130259c7686bc"},
	"water-kernel/C=4":       {cycles: 73706690, res: "cd67031c8c25262b", mem: "60d700172ea5e9c2"},
	"water-kernel-tiled/C=2": {cycles: 31451828, res: "d6e80b0071f920c1", mem: "507104de900ddb4f"},
	"water-kernel-tiled/C=4": {cycles: 30968219, res: "7be27730c3c48b52", mem: "59831d5a61e066cd"},
	"lu/C=2":                 {cycles: 999527, res: "a313f708fc3d1004", mem: "5bab298f2c3de7b0"},
	"lu/C=4":                 {cycles: 882302, res: "2333f2dffc74ba90", mem: "5bab298f2c3de7b0"},
	"serve/C=2":              {cycles: 1967831, res: "b459c7ac01ad9d8d", mem: "f51aa93b72823af0"},
	"serve/C=4":              {cycles: 1539217, res: "b7bbae7405ec005b", mem: "f51aa93b72823af0"},
	"syncbench/C=2":          {cycles: 1525997, res: "32c26d865c6356ab", mem: "90a5da08fd599ec1"},
	"syncbench/C=4":          {cycles: 1051633, res: "4a711653df19a9dd", mem: "90a5da08fd599ec1"},
}

// goldenFig11 pins the Figure 11 lock-hit rows at P=8.
var goldenFig11 = map[string]string{
	"tsp":        "[{1 0.3064516129032258} {2 0.3870967741935484} {4 0.43548387096774194}]",
	"water":      "[{1 0.4607142857142857} {2 0.6321428571428571} {4 0.7857142857142857}]",
	"barnes-hut": "[{1 0.25} {2 0.3125} {4 0.5625}]",
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestSyncDefaultsKeepSuiteByteIdentical runs the default configuration
// (token lock, tree barrier) over every small application at P=8 with
// C=2 and C=4, and the Figure 11 lock-hit sweep, against the committed
// golden fingerprints.
func TestSyncDefaultsKeepSuiteByteIdentical(t *testing.T) {
	names := append(append([]string{}, AppNames...), "water-kernel", "water-kernel-tiled", "lu", "serve", "syncbench")
	for _, name := range names {
		for _, c := range []int{2, 4} {
			key := fmt.Sprintf("%s/C=%d", name, c)
			res, mem, err := harness.RunAppMem(SmallApp(name), Config(8, c))
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := goldenRun{cycles: int64(res.Cycles), res: digest([]byte(fmt.Sprintf("%+v", res))), mem: digest(mem)}
			if want, ok := golden[key]; !ok || got != want {
				t.Errorf("%s: fingerprint changed\n got: %q: {cycles: %d, res: %q, mem: %q},\nwant: %+v",
					key, key, got.cycles, got.res, got.mem, want)
			}
		}
	}
	fig11 := []string{"tsp", "water", "barnes-hut"}
	rows, err := LockHitSweep(fig11, 8, SmallApp)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fig11 {
		if got := fmt.Sprint(rows[name]); got != goldenFig11[name] {
			t.Errorf("fig11 %s: rows changed\n got: %q: %q,\nwant: %q", name, name, got, goldenFig11[name])
		}
	}
}
