package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a runtime/pprof CPU profile into self samples per
// layer. A sample belongs to the package of its leaf frame: a program
// package mgs/internal/<layer>/... counts for <layer>, and a runtime
// leaf is split by what the stack above it is doing (collecting
// garbage, allocating, or scheduling goroutines).

// Runtime buckets, reported as runtime.<bucket>_cpu_share.
const (
	layerGC     = "runtime.gc"
	layerMalloc = "runtime.malloc"
	layerSched  = "runtime.sched"
	layerRTElse = "runtime.other"
	layerOther  = "other" // standard library outside the runtime, and the benchmark itself
)

// gcFrames mark a stack as garbage-collector work wherever they appear:
// background and assist marking, sweeping, scavenging and write-barrier
// flushes.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep",
	"runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.bulkBarrierPreWrite",
	"runtime.GC", "runtime.(*gcWork).",
}

// mallocFrames mark a stack as allocation: the allocator entry points
// and the span/cache refills beneath them.
var mallocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.makechan", "runtime.rawstring", "runtime.rawbyteslice",
	"runtime.(*mcache).", "runtime.(*mcentral).", "runtime.(*mheap).",
	"runtime.convT", "runtime.persistentalloc",
}

// schedFrames mark a stack as goroutine scheduling: the channel
// handshake between the engine and its processors, parking, the
// scheduler loop and the futexes under it.
var schedFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall",
	"runtime.gogo", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
	"runtime.semasleep", "runtime.semawakeup", "runtime.lock2", "runtime.unlock2",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.handoffp",
	"runtime.runqget", "runtime.runqput", "runtime.runqsteal", "runtime.execute",
	"runtime.casgstatus", "runtime.mPark", "runtime.sysmon", "runtime.usleep",
	"runtime.osyield", "runtime.procyield", "runtime.newproc", "runtime.goexit0",
	"runtime.gosched", "runtime.checkTimers",
}

// isRuntimePkg reports whether pkg is the runtime or one of its
// internal helper packages.
func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// funcPackage returns the import path of a symbol name as pprof
// records it, e.g. "mgs/internal/core.(*System).access" →
// "mgs/internal/core".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// classify returns the layer a sample is charged to. stack lists
// function names leaf first.
func classify(stack []string) string {
	if len(stack) == 0 {
		return layerOther
	}
	pkg := funcPackage(stack[0])
	if rest, ok := strings.CutPrefix(pkg, "mgs/internal/"); ok {
		layer, _, _ := strings.Cut(rest, "/")
		return layer
	}
	if !isRuntimePkg(pkg) {
		return layerOther
	}
	for _, marks := range []struct {
		frames []string
		layer  string
	}{{gcFrames, layerGC}, {mallocFrames, layerMalloc}, {schedFrames, layerSched}} {
		for _, fn := range stack {
			for _, m := range marks.frames {
				if strings.HasPrefix(fn, m) {
					return marks.layer
				}
			}
		}
	}
	return layerRTElse
}

// layerSamples decodes a (gzipped) pprof profile and returns the sample
// count per layer.
func layerSamples(data []byte) (map[string]int64, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		out[classify(stack)] += s.count
	}
	return out, nil
}

// profile is the subset of profile.proto the classifier needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost inlined first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // value[0]: the sample count
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, body []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			var vals []uint64
			err := eachField(body, func(num, wire int, v uint64, body []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, wire, v, body)
				case fSampleValue:
					return appendVarints(&vals, wire, v, body)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(body, func(num, wire int, v uint64, body []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(body, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(body, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.funcNames {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field in either encoding:
// one varint (wire type 0) or a packed run (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, body []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		body = body[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, handing each field to f: the
// value for varint fields, the body for length-delimited ones.
func eachField(b []byte, f func(num, wire int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
