// Package lint is mgslint: a suite of static analyzers that enforce the
// simulator's determinism and cost-accounting invariants at vet time.
//
// The contract being enforced is the one stated at the top of
// internal/sim/engine.go: runs are bit-for-bit reproducible because
// nothing on the simulated path touches the Go scheduler, wall-clock
// time, or map iteration order. The analyzers turn that comment into
// machine-checked rules; see DESIGN.md §"Static invariants" for the
// full policy, including the //mgslint:allow escape hatch.
package lint

import "strings"

// deterministicPkgs names the packages whose code executes on the
// simulated path (engine events or Proc bodies). Everything in these
// packages must be deterministic: no wall-clock time, no global
// randomness, no goroutines or channels, no map-iteration-order
// dependence.
//
// Host-side packages (harness, exp, stats, framework, cmd/*) drive
// simulations and may use host facilities freely — with the one
// exception of harness's sweep worker pool, which nogoroutine also
// watches (see scopeNoGoroutine).
var deterministicPkgs = map[string]bool{
	"sim":        true,
	"core":       true,
	"vm":         true,
	"mem":        true,
	"msg":        true,
	"msync":      true,
	"apps":       true,
	"cache":      true,
	"fault":      true,
	"obs":        true, // sinks fire from engine context; see internal/obs
	"check":      true, // spec Feed and Chooser.Choose fire from engine context
	"serve":      true, // store ops run in Proc bodies; trace generation is host-side but seeded
	"msync/algo": true, // lock/barrier algorithms run in proc and handler context
}

// canonicalPath strips go vet's test-variant suffix: the package
// "mgs/internal/sim [mgs/internal/sim.test]" is classified like
// "mgs/internal/sim".
func canonicalPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// internalPkg returns the path suffix following the last "internal"
// element ("mgs/internal/sim" → "sim", "mgs/internal/msync/algo" →
// "msync/algo"), or "" when the path has no "internal" element — so
// sub-packages classify by their full internal-relative path.
func internalPkg(path string) string {
	segs := strings.Split(canonicalPath(path), "/")
	for i := len(segs) - 2; i >= 0; i-- {
		if segs[i] == "internal" {
			return strings.Join(segs[i+1:], "/")
		}
	}
	return ""
}

// isDeterministic reports whether the package at path is on the
// simulated path and therefore subject to the determinism analyzers.
func isDeterministic(path string) bool {
	return deterministicPkgs[internalPkg(path)]
}

// scopeNoGoroutine reports whether nogoroutine checks the package:
// the deterministic set plus internal/harness, whose worker pool is one
// of the two sanctioned goroutine spawn sites.
func scopeNoGoroutine(path string) bool {
	return isDeterministic(path) || internalPkg(path) == "harness"
}

// scopeChargeCost reports whether chargecost checks the package:
// internal/core (protocol handlers) and internal/msg (send paths),
// where the rule is "timed surfaces must charge", plus internal/obs,
// where the rule inverts: emission paths must never charge.
func scopeChargeCost(path string) bool {
	p := internalPkg(path)
	return p == "core" || p == "msg" || p == "obs"
}

// pkgIs reports whether path denotes internal/<name> (used to identify
// the real sim/msg packages when resolving types cross-package; fixture
// packages under testdata mirror the same paths).
func pkgIs(path, name string) bool {
	return internalPkg(path) == name
}
