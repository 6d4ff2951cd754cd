// Package harness is host-side: its package-level defaults are set by
// the command-line tools, outside pkgvar's scope.
package harness

var SweepWorkers int

func SetWorkers(n int) { SweepWorkers = n }
