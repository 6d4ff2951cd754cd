package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mgs/internal/lint/analysis"
)

// DetFlow is interprocedural nondeterminism taint. The determinism
// contract says a run is a pure function of its seed; maprange enforces
// the discipline locally (order-insensitive bodies, collect-then-sort),
// but a map-ordered value can also leak through a return value or a
// parameter into another package before it reaches anything
// observable. DetFlow tracks three taint categories — map iteration
// order, unseeded randomness, pointer identity — through assignments,
// call returns (via exported PropParams facts), and parameters (via
// exported SinkParams facts), and reports when a tainted value reaches
// a determinism sink: charged cycles (Proc.Advance/Sleep/AddDebt,
// stats.Collector charging), the event schedule (Engine.At* / After,
// Network.Send/Extend, Proc.Wake), or serialized output (metrics,
// CSV/JSON encoders).
//
// Sorting cleanses only the map-order category: a slice that is passed
// to sort.* / slices.Sort* is a deterministic sequence no matter what
// order it was collected in. Commutative compound assignments
// (x += v, *=, |=, &=, ^=, -= on numbers) also do not propagate, since
// an order-independent reduction is deterministic; string += does.
var DetFlow = &analysis.Analyzer{
	Name: "detflow",
	Doc:  "nondeterministic values (map order, unseeded randomness, pointer identity) must not flow into charged cycles, the event schedule, or serialized output",
	Run:  runDetFlow,
}

// scopeDetFlow: the deterministic packages, plus the host-side packages
// that produce the artifacts we promise are reproducible (stats
// breakdowns, sweep CSVs, CLI output).
func scopeDetFlow(path string) bool {
	p := internalPkg(path)
	return isDeterministic(path) || p == "harness" || p == "stats" || p == "exp" || p == "cli"
}

// Param taint bits start above the source-category bits.
const taintParamShift = 3

const taintSourceMask = analysis.TaintMapOrder | analysis.TaintRandom | analysis.TaintPointer

// taintDiag is one source-tainted sink hit.
type taintDiag struct {
	pos token.Pos
	msg string
}

// taintResult summarizes one function.
type taintResult struct {
	retBits    int // source categories present in return values
	retWhy     string
	propParams []int // param indices whose taint reaches a return value
	sinkParams []analysis.SinkParam
	diags      []taintDiag
}

// equal compares the parts of two summaries that form the fixpoint
// lattice: bits and parameter indices. The reason strings are excluded
// — through a recursive call a sink's reason can grow by one "(via ...)"
// every round, so comparing it would never converge; the first reason
// found is the one kept.
func (r *taintResult) equal(o *taintResult) bool {
	if r.retBits != o.retBits || len(r.propParams) != len(o.propParams) ||
		len(r.sinkParams) != len(o.sinkParams) || len(r.diags) != len(o.diags) {
		return false
	}
	for i := range r.propParams {
		if r.propParams[i] != o.propParams[i] {
			return false
		}
	}
	for i := range r.sinkParams {
		if r.sinkParams[i].Index != o.sinkParams[i].Index {
			return false
		}
	}
	return true
}

func runDetFlow(pass *analysis.Pass) error {
	if !scopeDetFlow(pass.Pkg.Path()) {
		return nil
	}
	results := taintFor(pass)
	var fns []*types.Func
	for fn := range results {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	seen := map[string]bool{}
	for _, fn := range fns {
		for _, d := range results[fn].diags {
			key := fmt.Sprintf("%d:%s", d.pos, d.msg)
			if !seen[key] {
				seen[key] = true
				pass.Reportf(d.pos, "%s", d.msg)
			}
		}
	}
	return nil
}

// computeTaint resolves every declared function's taint summary to a
// fixpoint (masks only grow, so this terminates).
func computeTaint(pass *analysis.Pass, g *callGraph) map[*types.Func]*taintResult {
	results := map[*types.Func]*taintResult{}
	for fn := range g.nodes {
		results[fn] = &taintResult{}
	}
	for changed := true; changed; {
		changed = false
		for fn, n := range g.nodes {
			r := taintFunc(pass, g, results, fn, n.decl)
			if !r.equal(results[fn]) {
				results[fn] = r
				changed = true
			}
		}
	}
	return results
}

// taintState is the per-function propagation context.
type taintState struct {
	pass    *analysis.Pass
	g       *callGraph
	results map[*types.Func]*taintResult
	fn      *types.Func
	masks   map[types.Object]int
	why     map[int]string // lowest source bit → first cause
	sorted  map[types.Object]bool
	params  map[types.Object]int // param object → index
	nparams int
}

func taintFunc(pass *analysis.Pass, g *callGraph, results map[*types.Func]*taintResult, fn *types.Func, fd *ast.FuncDecl) *taintResult {
	st := &taintState{
		pass: pass, g: g, results: results, fn: fn,
		masks:  map[types.Object]int{},
		why:    map[int]string{},
		sorted: map[types.Object]bool{},
		params: map[types.Object]int{},
	}
	sig := fn.Type().(*types.Signature)
	st.nparams = sig.Params().Len()
	for i := 0; i < st.nparams; i++ {
		st.params[sig.Params().At(i)] = i
	}

	// Pre-pass: slices handed to a sort are cleansed of map-order taint.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := calleeOf(pass.TypesInfo, call); f != nil {
			p := funcPkgPath(f)
			if (p == "sort" || p == "slices") && len(call.Args) > 0 {
				if obj := rootObj(pass.TypesInfo, call.Args[0]); obj != nil {
					st.sorted[obj] = true
				}
			}
		}
		return true
	})

	// Propagate to a local fixpoint.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if st.propagate(n) {
				changed = true
			}
			return true
		})
	}

	// Harvest sinks and returns.
	r := &taintResult{}
	sinkSeen := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			st.checkSinks(e, r, sinkSeen)
		case *ast.ReturnStmt:
			for _, res := range e.Results {
				m := st.exprMask(res)
				if src := m & taintSourceMask; src != 0 && r.retBits&src != src {
					r.retBits |= src
					if r.retWhy == "" {
						r.retWhy = st.whyFor(src)
					}
				}
				for i := 0; i < st.nparams; i++ {
					if m&(1<<(taintParamShift+i)) != 0 && !containsInt(r.propParams, i) {
						r.propParams = append(r.propParams, i)
					}
				}
			}
		}
		return true
	})
	sort.Ints(r.propParams)
	sort.Slice(r.sinkParams, func(i, j int) bool { return r.sinkParams[i].Index < r.sinkParams[j].Index })
	sort.Slice(r.diags, func(i, j int) bool { return r.diags[i].pos < r.diags[j].pos })
	return r
}

// propagate handles one statement node, returning whether any mask
// grew.
func (st *taintState) propagate(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			if len(s.Lhs) == len(s.Rhs) {
				changed := false
				for i := range s.Lhs {
					if st.taintTarget(s.Lhs[i], st.exprMask(s.Rhs[i])) {
						changed = true
					}
				}
				return changed
			}
			// a, b := f(): every target gets the call's mask.
			m := 0
			for _, r := range s.Rhs {
				m |= st.exprMask(r)
			}
			changed := false
			for _, l := range s.Lhs {
				if st.taintTarget(l, m) {
					changed = true
				}
			}
			return changed
		}
		// Compound assignment: commutative numeric reductions are
		// order-independent and do not propagate (string += is ordered).
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if commutativeAssign(s.Tok) && !st.isStringExpr(s.Lhs[0]) {
				return false
			}
			return st.taintTarget(s.Lhs[0], st.exprMask(s.Lhs[0])|st.exprMask(s.Rhs[0]))
		}
	case *ast.RangeStmt:
		m := st.exprMask(s.X)
		if tv, ok := st.pass.TypesInfo.Types[s.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				m |= analysis.TaintMapOrder
				st.setWhy(analysis.TaintMapOrder, "map iteration at "+st.posOf(s.Pos()))
			}
		}
		changed := false
		if s.Key != nil && st.taintTarget(s.Key, m) {
			changed = true
		}
		if s.Value != nil && st.taintTarget(s.Value, m) {
			changed = true
		}
		return changed
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		changed := false
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				m := 0
				for _, v := range vs.Values {
					m |= st.exprMask(v)
				}
				for _, name := range vs.Names {
					if st.taintTarget(name, m) {
						changed = true
					}
				}
			}
		}
		return changed
	}
	return false
}

// taintTarget adds mask bits to the root variable of an assignment
// target.
func (st *taintState) taintTarget(lhs ast.Expr, mask int) bool {
	if mask == 0 {
		return false
	}
	obj := rootObj(st.pass.TypesInfo, lhs)
	if obj == nil {
		return false
	}
	if st.sorted[obj] {
		mask &^= analysis.TaintMapOrder
	}
	if st.masks[obj]&mask == mask {
		return false
	}
	st.masks[obj] |= mask
	return true
}

// exprMask computes the taint mask of an expression.
func (st *taintState) exprMask(e ast.Expr) int {
	if e == nil {
		return 0
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := st.pass.TypesInfo.ObjectOf(x)
		if obj == nil {
			return 0
		}
		if i, ok := st.params[obj]; ok && i < 58 {
			return st.masks[obj] | 1<<(taintParamShift+i)
		}
		m := st.masks[obj]
		if st.sorted[obj] {
			m &^= analysis.TaintMapOrder
		}
		return m
	case *ast.SelectorExpr:
		if _, ok := st.pass.TypesInfo.Uses[x.Sel].(*types.Func); ok {
			return 0 // method value: not a data read
		}
		return st.exprMask(x.X)
	case *ast.IndexExpr:
		return st.exprMask(x.X) | st.exprMask(x.Index)
	case *ast.SliceExpr:
		return st.exprMask(x.X)
	case *ast.StarExpr:
		return st.exprMask(x.X)
	case *ast.UnaryExpr:
		return st.exprMask(x.X)
	case *ast.BinaryExpr:
		return st.exprMask(x.X) | st.exprMask(x.Y)
	case *ast.CompositeLit:
		m := 0
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= st.exprMask(kv.Value)
			} else {
				m |= st.exprMask(el)
			}
		}
		return m
	case *ast.TypeAssertExpr:
		return st.exprMask(x.X)
	case *ast.CallExpr:
		return st.callMask(x)
	}
	return 0
}

// callMask computes the taint of a call's result.
func (st *taintState) callMask(call *ast.CallExpr) int {
	info := st.pass.TypesInfo
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return 0
		}
		// Conversion. uintptr(unsafe.Pointer) is the pointer-identity
		// source; everything else passes taint through.
		m := st.exprMask(call.Args[0])
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr && len(call.Args) == 1 {
			if at, ok := info.Types[call.Args[0]]; ok {
				if ab, ok := at.Type.Underlying().(*types.Basic); ok && ab.Kind() == types.UnsafePointer {
					m |= analysis.TaintPointer
					st.setWhy(analysis.TaintPointer, "uintptr(unsafe.Pointer) at "+st.posOf(call.Pos()))
				}
			}
		}
		return m
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "make", "new", "delete", "copy", "clear":
				return 0 // counts and fresh values are order-independent
			default:
				m := 0
				for _, a := range call.Args {
					m |= st.exprMask(a)
				}
				return m
			}
		}
	}
	argsMask := func() int {
		m := 0
		for _, a := range call.Args {
			m |= st.exprMask(a)
		}
		return m
	}
	f := calleeOf(info, call)
	if f == nil {
		return argsMask() // dynamic: pass-through
	}
	path := funcPkgPath(f)
	switch path {
	case "math/rand", "math/rand/v2":
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() == nil && !strings.HasPrefix(f.Name(), "New") {
			st.setWhy(analysis.TaintRandom, "unseeded "+path+"."+f.Name()+" at "+st.posOf(call.Pos()))
			return analysis.TaintRandom
		}
		return 0 // a seeded *rand.Rand is a pure function of its seed
	case "sort", "slices":
		return 0
	case "fmt":
		m := argsMask()
		if formatUsesPointerVerb(info, call) {
			m |= analysis.TaintPointer
			st.setWhy(analysis.TaintPointer, "%p formatting at "+st.posOf(call.Pos()))
		}
		return m
	}
	if internalPkg(path) == "" && path != "mgs" {
		return argsMask() // other stdlib: conservative pass-through
	}
	// Module-internal: combine every CHA target's fact.
	m := 0
	for _, t := range resolveTargets(st.g, info, call) {
		var fact *analysis.FuncFact
		if n := st.g.node(t); n != nil {
			r := st.results[n.fn]
			fact = &analysis.FuncFact{TaintBits: r.retBits, TaintWhy: r.retWhy, PropParams: r.propParams}
		} else {
			fact = st.pass.FactsFor(funcPkgPath(t)).Fact(funcID(t))
		}
		if fact == nil {
			continue
		}
		if fact.TaintBits != 0 {
			m |= fact.TaintBits
			st.setWhy(fact.TaintBits, "via "+describeFunc(t)+": "+fact.TaintWhy)
		}
		for _, pi := range fact.PropParams {
			for _, a := range argsForParam(call, t, pi) {
				m |= st.exprMask(a)
			}
		}
	}
	return m
}

// checkSinks inspects one call for intrinsic or fact-declared sinks.
func (st *taintState) checkSinks(call *ast.CallExpr, r *taintResult, seen map[string]bool) {
	info := st.pass.TypesInfo
	f := calleeOf(info, call)
	if f == nil {
		return
	}
	record := func(arg ast.Expr, sinkDesc string) {
		m := st.exprMask(arg)
		if src := m & taintSourceMask; src != 0 {
			msg := fmt.Sprintf("value derived from %s (%s) flows into %s; a run must be a pure function of its seed",
				analysis.TaintName(src), st.whyFor(src), sinkDesc)
			key := fmt.Sprintf("%d:%s", arg.Pos(), msg)
			if !seen[key] {
				seen[key] = true
				r.diags = append(r.diags, taintDiag{pos: arg.Pos(), msg: msg})
			}
		}
		for i := 0; i < st.nparams; i++ {
			if m&(1<<(taintParamShift+i)) != 0 {
				if !hasSinkParam(r.sinkParams, i) {
					r.sinkParams = append(r.sinkParams, analysis.SinkParam{Index: i, Why: sinkDesc})
				}
			}
		}
	}
	if desc, ok := intrinsicSink(f); ok {
		for _, arg := range call.Args {
			if st.sinkExemptArg(arg) {
				continue
			}
			record(arg, desc)
		}
		return
	}
	// Sinks declared by callee facts.
	for _, t := range resolveTargets(st.g, info, call) {
		var sinks []analysis.SinkParam
		if n := st.g.node(t); n != nil {
			sinks = st.results[n.fn].sinkParams
		} else if fact := st.pass.FactsFor(funcPkgPath(t)).Fact(funcID(t)); fact != nil {
			sinks = fact.SinkParams
		}
		for _, sp := range sinks {
			for _, a := range argsForParam(call, t, sp.Index) {
				record(a, sp.Why+" (via "+describeFunc(t)+")")
			}
		}
	}
}

// sinkExemptArg: callbacks and procs are schedule participants, not
// data — only value arguments are checked.
func (st *taintState) sinkExemptArg(arg ast.Expr) bool {
	tv, ok := st.pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if _, ok := tv.Type.Underlying().(*types.Signature); ok {
		return true
	}
	return typeIs(tv.Type, "sim", "Proc")
}

// intrinsicSink classifies the built-in determinism sinks.
func intrinsicSink(f *types.Func) (string, bool) {
	switch {
	case isMethodOn(f, "sim", "Proc", "Advance", "Sleep", "AddDebt", "Wake"):
		return "charged cycles (Proc." + f.Name() + ")", true
	case isMethodOn(f, "sim", "Engine", "At", "AtChoice", "After"):
		return "the committed event order (Engine." + f.Name() + ")", true
	case isMethodOn(f, "msg", "Network", "Send", "Extend"):
		return "message timing (Network." + f.Name() + ")", true
	case isMethodOn(f, "stats", "Collector", "Charge", "Count"):
		return "cost accounting (stats.Collector." + f.Name() + ", lands in BENCH/CSV output)", true
	case isMethodOn(f, "obs", "Counter", "Add"),
		isMethodOn(f, "obs", "Gauge", "Set"),
		isMethodOn(f, "obs", "Histogram", "Observe"):
		return "metrics output (obs." + f.Name() + ")", true
	}
	path := funcPkgPath(f)
	if path == "encoding/csv" && (f.Name() == "Write" || f.Name() == "WriteAll") {
		return "CSV output", true
	}
	if path == "encoding/json" && (f.Name() == "Marshal" || f.Name() == "MarshalIndent" || f.Name() == "Encode") {
		return "JSON output", true
	}
	return "", false
}

// resolveTargets finds the call's CHA target set via the graph's
// recorded sites (falling back to the static callee).
func resolveTargets(g *callGraph, info *types.Info, call *ast.CallExpr) []*types.Func {
	if s, ok := g.byCall[call]; ok {
		return s.targets
	}
	if f := calleeOf(info, call); f != nil {
		return []*types.Func{f}
	}
	return nil
}

// argsForParam returns the call arguments feeding parameter index pi of
// callee t (several, for the variadic tail).
func argsForParam(call *ast.CallExpr, t *types.Func, pi int) []ast.Expr {
	sig, ok := t.Type().(*types.Signature)
	if !ok {
		return nil
	}
	np := sig.Params().Len()
	var out []ast.Expr
	for i, a := range call.Args {
		j := i
		if sig.Variadic() && j >= np-1 {
			j = np - 1
		}
		if j == pi {
			out = append(out, a)
		}
	}
	return out
}

func (st *taintState) isStringExpr(e ast.Expr) bool {
	tv, ok := st.pass.TypesInfo.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type)
}

func (st *taintState) setWhy(bits int, why string) {
	for b := 1; b <= analysis.TaintPointer; b <<= 1 {
		if bits&b != 0 {
			if _, ok := st.why[b]; !ok {
				st.why[b] = why
			}
		}
	}
}

func (st *taintState) whyFor(bits int) string {
	for b := 1; b <= analysis.TaintPointer; b <<= 1 {
		if bits&b != 0 {
			if w, ok := st.why[b]; ok {
				return w
			}
		}
	}
	return "nondeterministic source"
}

func (st *taintState) posOf(p token.Pos) string {
	pos := st.pass.Fset.Position(p)
	return fmt.Sprintf("%s:%d", shortFile(pos.Filename), pos.Line)
}

func shortFile(f string) string {
	if i := strings.LastIndexByte(f, '/'); i >= 0 {
		if j := strings.LastIndexByte(f[:i], '/'); j >= 0 {
			return f[j+1:]
		}
		return f[i+1:]
	}
	return f
}

// formatUsesPointerVerb reports whether a fmt call's constant format
// string contains %p.
func formatUsesPointerVerb(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if tv, ok := info.Types[a]; ok && tv.Value != nil && isStringType(tv.Type) {
			if strings.Contains(tv.Value.ExactString(), "%p") {
				return true
			}
		}
	}
	return false
}

// rootObj strips selectors, indexes, stars, and parens down to the
// root identifier's object.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func hasSinkParam(s []analysis.SinkParam, i int) bool {
	for _, sp := range s {
		if sp.Index == i {
			return true
		}
	}
	return false
}

// commutativeAssign reports whether tok is a compound-assignment
// operator whose numeric reduction is order-independent: the same
// final value results no matter which order tainted increments land.
func commutativeAssign(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}
