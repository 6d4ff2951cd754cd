// Package mem exercises the noalloc construct scan and the sanctioned
// zero-alloc idioms.
package mem

import (
	"fmt"
	"sync/atomic"
)

// Hot trips the common allocating constructs.
//
//mgs:noalloc
func Hot(dst, src []int, m map[int]int, n int) []int {
	tmp := make([]int, n) // want `make allocates`
	dst = append(src, 1)  // want `append to a different slice allocates`
	m[n] = 1              // want `map assignment may allocate a bucket`
	_ = tmp
	return dst
}

// Boxed allocates through an interface conversion and a capturing
// closure.
//
//mgs:noalloc
func Boxed(v int) {
	var x any = v                 // want `assignment to interface boxes and allocates`
	fn := func() int { return v } // want `closure captures variables and allocates`
	_, _ = x, fn
}

// Strings allocates by concatenation and conversion.
//
//mgs:noalloc
func Strings(a, b string, raw []byte) string {
	s := a + b       // want `string concatenation allocates`
	t := string(raw) // want `conversion to string copies and allocates`
	_ = t
	return s
}

// Steady is the sanctioned steady-state shape: a make guarded by a
// cap high-water test, and self-append growth. Neither is a finding.
//
//mgs:noalloc
func Steady(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, 0, n)
	}
	buf = append(buf, n)
	return buf
}

// Counter stays on the stdlib whitelist: sync/atomic is pure register
// traffic.
//
//mgs:noalloc
func Counter(c *int64) int64 {
	atomic.AddInt64(c, 1)
	return atomic.LoadInt64(c)
}

// helper allocates; Deep reaches it transitively, and the finding is
// reported inside the callee (same package), not at the call site.
func helper(n int) []int {
	return make([]int, n) // want `reached from //mgs:noalloc mem\.Deep: make allocates`
}

//mgs:noalloc
func Deep(n int) []int {
	return helper(n)
}

// Printf is off the whitelist: the call edge itself is the finding.
//
//mgs:noalloc
func Printf() {
	fmt.Println() // want `call to fmt\.Println .*not on the no-allocation stdlib whitelist`
}

// coldPath allocates deliberately.
func coldPath() []int {
	return make([]int, 64)
}

// Warm escapes the cold edge with an allow at the call site — which
// also keeps coldPath's allocation from poisoning Warm's own exported
// fact.
//
//mgs:noalloc
func Warm() []int {
	return coldPath() //mgslint:allow noalloc -- deliberate cold path: runs once at attach, not in steady state
}

// Clean is allocation-free and exports a clean fact for the core
// fixture to consume.
//
//mgs:noalloc
func Clean(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Dirty allocates; its exported fact carries the cause across the
// package boundary.
func Dirty(n int) []int {
	return make([]int, n)
}

// A misplaced or misspelled directive is a diagnostic, not a silently
// ignored comment.
//
//mgs:noalloc // want `misplaced //mgs: directive`
type pinned struct {
	n int //mgs:frozen // want `misplaced //mgs: directive`
}

// Twice carries a misspelled directive and a malformed one.
//
//mgs:nolloc // want `//mgs:nolloc is not a directive`
//mgs:noalloc extra // want `//mgs:noalloc takes no arguments`
func Twice(s *pinned) int { return s.n }
