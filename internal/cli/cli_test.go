package cli

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"mgs/internal/harness"
)

// withArgs runs fn with a fresh flag set and the given command line.
func withArgs(t *testing.T, args []string, fn func()) {
	t.Helper()
	oldFS, oldArgs, oldWorkers := flag.CommandLine, os.Args, harness.SweepWorkers
	defer func() {
		flag.CommandLine, os.Args, harness.SweepWorkers = oldFS, oldArgs, oldWorkers
	}()
	flag.CommandLine = flag.NewFlagSet("cli_test", flag.PanicOnError)
	os.Args = append([]string{"cli_test"}, args...)
	fn()
}

func TestDefaultsAndConfig(t *testing.T) {
	withArgs(t, nil, func() {
		tool := New("cli_test").MachineFlags("water", 8, 2, true).Parse()
		if tool.App != "water" || tool.P != 8 || tool.C != 2 || !tool.Small {
			t.Fatalf("defaults not applied: %+v", tool)
		}
		cfg := tool.Config()
		if cfg.P != 8 || cfg.C != 2 || cfg.PageSize != 1024 || cfg.Delay != 1000 {
			t.Fatalf("Config did not use the paper defaults: %+v", cfg)
		}
		if cfg.Disabled {
			t.Fatal("C < P must leave the software layer enabled")
		}
	})
}

func TestParsedValuesFlow(t *testing.T) {
	withArgs(t, []string{"-app", "tsp", "-p", "16", "-c", "4", "-small=false", "-workers", "3", "-csv"}, func() {
		tool := New("cli_test").MachineFlags("water", 8, 2, true).SweepFlags().Parse()
		if tool.App != "tsp" || tool.P != 16 || tool.C != 4 || tool.Small {
			t.Fatalf("parsed values not applied: %+v", tool)
		}
		if !tool.CSV {
			t.Fatal("-csv not applied")
		}
		if harness.SweepWorkers != 3 {
			t.Fatalf("Parse did not set harness.SweepWorkers: %d", harness.SweepWorkers)
		}
		if cfg := tool.Config(harness.WithPageSize(2048)); cfg.PageSize != 2048 {
			t.Fatalf("options not applied through Config: %+v", cfg)
		}
	})
}

// badInputEnv carries a child process's command line in
// TestBadInputExits.
const badInputEnv = "MGS_CLI_BAD_INPUT"

// TestBadInputExits runs a tool shaped like mgs-run (its -pagesize flag
// included) in a child process for each bad input and requires a
// nonzero exit with a one-line message instead of a panic.
func TestBadInputExits(t *testing.T) {
	if args := os.Getenv(badInputEnv); args != "" {
		withArgs(t, strings.Fields(args), func() {
			tool := New("cli_test").MachineFlags("jacobi", 32, 4, false)
			pagesize := flag.Int("pagesize", 1024, "page size in bytes")
			tool.Parse()
			harness.NewMachine(tool.Config(harness.WithPageSize(*pagesize)))
		})
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-p 30 -c 4", "bad machine shape P=30 C=4"},
		{"-p 0", "bad machine shape P=0 C=4"},
		{"-pagesize 100", "bad page size 100"},
		{"-app nope", `unknown app "nope"`},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestBadInputExits$")
			cmd.Env = append(os.Environ(), badInputEnv+"="+tc.args)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("want a nonzero exit, got err=%v", err)
			}
			msg := strings.TrimSuffix(stderr.String(), "\n")
			if strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "cli_test: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("want one line %q containing %q, got:\n%s", "cli_test: ...", tc.want, stderr.String())
			}
		})
	}
}

func TestAppsSelection(t *testing.T) {
	withArgs(t, nil, func() {
		tool := New("cli_test").MachineFlags("water", 8, 2, false).Parse()
		// The full-size and reduced constructors must both resolve every
		// advertised application name without panicking.
		for _, small := range []bool{false, true} {
			tool.Small = small
			mk := tool.Apps()
			for _, name := range AppList() {
				if app := mk(name); app == nil {
					t.Fatalf("Apps()(%q) returned nil (small=%v)", name, small)
				}
			}
		}
	})
}

func TestShapeFlagsSkipsApp(t *testing.T) {
	withArgs(t, []string{"-p", "4"}, func() {
		New("cli_test").ShapeFlags(8, 2, true).Parse()
		if f := flag.CommandLine.Lookup("app"); f != nil {
			t.Fatal("ShapeFlags must not register -app")
		}
	})
}
