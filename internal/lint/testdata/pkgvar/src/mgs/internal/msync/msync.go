// Package msync is a deterministic package: its package-level vars may
// be written only in func init or through self-synchronizing types.
package msync

import (
	"sync"
	"sync/atomic"
)

var seq int

var table = map[int]int{}

var defaults struct{ n int }

var pool = sync.Pool{}

var ticks atomic.Int64

func init() {
	seq = 1
	table[0] = 0
}

// Next writes a package-level var at run time.
func Next() int {
	seq++ // want `write to package-level var seq from a deterministic package`
	return seq
}

// Remember writes through a package-level map.
func Remember(k, v int) {
	table[k] = v // want `write to package-level var table`
}

// SetDefault writes a field of a package-level struct.
func SetDefault(n int) {
	defaults.n = n // want `write to package-level var defaults`
}

// Reset reassigns an internally synchronized type: exempt.
func Reset() {
	pool = sync.Pool{}
	ticks.Add(1)
}

// Local shadows the package-level name: not a package-level write.
func Local() int {
	seq := 0
	seq++
	return seq
}
