package analysis

import "encoding/json"

// Cross-package facts. The interprocedural analyzers (noalloc, detflow)
// summarize every function of a package into a FuncFact so
// callers in other packages can be checked without re-analyzing the
// callee's source. Facts serialize as JSON: the standalone driver keeps
// them in memory while analyzing packages in dependency order, and the
// unitchecker driver writes them to cmd/go's .vetx facts file so `go
// vet` caches and threads them exactly like x/tools facts.

// PackageFacts is the exported summary of one package.
type PackageFacts struct {
	// Path is the canonical import path the facts describe.
	Path string `json:"path,omitempty"`

	// Funcs maps a function's canonical ID — "Name" for package
	// functions, "(Recv).Name" for methods, pointer receivers
	// unwrapped — to its summary.
	Funcs map[string]*FuncFact `json:"funcs,omitempty"`
}

// FuncFact summarizes one function or method.
type FuncFact struct {
	// Allocates reports that calling the function may allocate on the
	// Go heap (transitively), making it unusable from //mgs:noalloc
	// code. AllocWhy is the first cause, as a human-readable chain
	// ("file:line: make([]T) in grow").
	Allocates bool   `json:"allocates,omitempty"`
	AllocWhy  string `json:"alloc_why,omitempty"`

	// TaintBits carries the nondeterminism categories (TaintMapOrder,
	// TaintRandom, TaintPointer) present in the function's return
	// values regardless of argument taint; TaintWhy names the first
	// source. PropParams lists parameter indices whose taint flows to a
	// return value, so callers propagate argument taint through the
	// call.
	TaintBits  int    `json:"taint_bits,omitempty"`
	TaintWhy   string `json:"taint_why,omitempty"`
	PropParams []int  `json:"prop_params,omitempty"`

	// SinkParams lists parameters that the function (transitively)
	// feeds into a determinism sink — charged cycles, the event
	// schedule, or serialized output.
	SinkParams []SinkParam `json:"sink_params,omitempty"`
}

// Taint categories. Sort-cleansing removes only TaintMapOrder:
// collect-then-sort turns map iteration into a deterministic sequence,
// but no amount of sorting fixes unseeded randomness or pointer
// identity.
const (
	TaintMapOrder = 1 << iota // map iteration order
	TaintRandom               // unseeded randomness
	TaintPointer              // pointer/goroutine identity
)

// TaintName returns a short label for the lowest category in bits.
func TaintName(bits int) string {
	switch {
	case bits&TaintMapOrder != 0:
		return "map iteration order"
	case bits&TaintRandom != 0:
		return "unseeded randomness"
	case bits&TaintPointer != 0:
		return "pointer identity"
	}
	return "nondeterminism"
}

// SinkParam marks one parameter as sink-feeding.
type SinkParam struct {
	Index int    `json:"index"`
	Why   string `json:"why"` // e.g. "charged cycles via Proc.Advance"
}

// Fact returns the FuncFact for id, or nil.
func (p *PackageFacts) Fact(id string) *FuncFact {
	if p == nil {
		return nil
	}
	return p.Funcs[id]
}

// EncodeFacts serializes facts for a .vetx file (deterministic JSON).
func EncodeFacts(p *PackageFacts) ([]byte, error) {
	return json.Marshal(p)
}

// DecodeFacts parses a .vetx facts payload. Empty input (the facts file
// cmd/go requires even for factless packages) decodes to nil.
func DecodeFacts(data []byte) (*PackageFacts, error) {
	if len(data) == 0 {
		return nil, nil
	}
	p := &PackageFacts{}
	if err := json.Unmarshal(data, p); err != nil {
		return nil, err
	}
	return p, nil
}
