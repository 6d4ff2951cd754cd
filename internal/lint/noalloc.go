package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mgs/internal/lint/analysis"
)

// NoAlloc proves //mgs:noalloc functions allocation-free, transitively
// through the call graph. PR 1 and PR 6 made the access path and the
// DiffBuf diff path zero-alloc and pinned that with runtime
// testing.AllocsPerRun assertions; those assertions only cover what a
// test happens to execute. This analyzer turns the property into a
// compile-time check: any reachable allocating construct — make, a
// non-self append, a capturing closure or method value, an interface
// conversion that boxes, a map insert, string concatenation, a
// string<->[]byte conversion, go/defer-in-loop — is a diagnostic, and
// so is a call into anything that cannot be proven clean (cross-package
// callees resolve through exported facts, stdlib through a short
// audited whitelist, dynamic calls not at all).
//
// Two idioms are sanctioned because they are how the hot paths stay
// zero-alloc in steady state: a self-append (v = append(v, ...), the
// amortized-growth pattern) and a make guarded by a cap/len test (the
// high-water DiffBuf grow). A deliberate slow-path escape — the fault
// path off System.Access, a get-or-create registration — is annotated
// at the call site with //mgslint:allow noalloc and a justification,
// which also stops the callee's allocations from poisoning every
// transitive caller.
var NoAlloc = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //mgs:noalloc must not allocate, transitively through the call graph",
	Run:  runNoAlloc,
}

// allocCause is one reason a function allocates.
type allocCause struct {
	pos token.Pos
	why string
}

// callDep is one call edge whose allocation verdict depends on the
// target.
type callDep struct {
	pos     token.Pos
	targets []*types.Func
	dynamic string // non-empty: unresolvable, conservatively allocating
}

// allocInfo is the allocation summary of one declared function.
type allocInfo struct {
	causes  []allocCause // local allocating constructs (allow-filtered)
	deps    []callDep
	verdict *allocCause // nil = proven allocation-free
}

func runNoAlloc(pass *analysis.Pass) error {
	anns := annsFor(pass)
	for _, b := range anns.bad {
		pass.Reportf(b.pos, "%s", b.msg)
	}
	if len(anns.noalloc) == 0 {
		return nil
	}
	g := graphFor(pass)
	infos := allocInfoFor(pass)

	// Report from every annotated root, deduplicating shared paths: the
	// same helper reached from two roots is diagnosed once.
	var roots []*types.Func
	for fn := range anns.noalloc {
		roots = append(roots, fn)
	}
	sort.Slice(roots, func(i, j int) bool { return anns.noalloc[roots[i]] < anns.noalloc[roots[j]] })

	reported := map[token.Pos]bool{}
	visited := map[*types.Func]bool{}
	var visit func(fn *types.Func, root *types.Func)
	visit = func(fn, root *types.Func) {
		if visited[fn] {
			return
		}
		visited[fn] = true
		info := infos[fn]
		if info == nil || info.verdict == nil {
			return // clean: nothing below can fire
		}
		where := "reached from //mgs:noalloc " + describeFunc(root)
		if fn == root {
			where = "in //mgs:noalloc function " + describeFunc(root)
		}
		for _, c := range info.causes {
			if !reported[c.pos] {
				reported[c.pos] = true
				pass.Reportf(c.pos, "%s: %s", where, c.why)
			}
		}
		for _, dep := range info.deps {
			cause := resolveDep(pass, g, infos, dep)
			if cause == nil {
				continue
			}
			if t := sameDepTarget(g, dep); t != nil {
				visit(t, root) // report inside the same-package callee, not at the call
				continue
			}
			if pass.Allowed("noalloc", dep.pos) {
				continue
			}
			if !reported[dep.pos] {
				reported[dep.pos] = true
				pass.Reportf(dep.pos, "%s: %s", where, cause.why)
			}
		}
	}
	for _, r := range roots {
		visit(r, r)
	}
	return nil
}

// sameDepTarget returns the dep's single same-package declared target,
// or nil.
func sameDepTarget(g *callGraph, dep callDep) *types.Func {
	if dep.dynamic != "" || len(dep.targets) != 1 {
		return nil
	}
	if n := g.node(dep.targets[0]); n != nil {
		return n.fn
	}
	return nil
}

// computeAllocInfo runs the local construct scan over every declared
// function and resolves transitive verdicts to a fixpoint (optimistic:
// a cycle with no local cause is allocation-free).
func computeAllocInfo(pass *analysis.Pass, g *callGraph) map[*types.Func]*allocInfo {
	infos := map[*types.Func]*allocInfo{}
	for fn, n := range g.nodes {
		info := &allocInfo{}
		info.causes = scanAllocs(pass, n.decl)
		for _, site := range n.sites {
			info.deps = append(info.deps, callDep{pos: site.pos, targets: site.targets, dynamic: site.dynamic})
		}
		sort.Slice(info.deps, func(i, j int) bool { return info.deps[i].pos < info.deps[j].pos })
		infos[fn] = info
	}
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			if info.verdict != nil {
				continue
			}
			if len(info.causes) > 0 {
				info.verdict = &info.causes[0]
				changed = true
				continue
			}
			for _, dep := range info.deps {
				if c := resolveDep(pass, g, infos, dep); c != nil {
					info.verdict = c
					changed = true
					break
				}
			}
		}
	}
	return infos
}

// resolveDep returns the allocation cause of one call edge, or nil if
// every target is proven clean. An //mgslint:allow noalloc on the call
// site discharges the edge (and is marked used).
func resolveDep(pass *analysis.Pass, g *callGraph, infos map[*types.Func]*allocInfo, dep callDep) *allocCause {
	cause := func(why string) *allocCause {
		if pass.Allowed("noalloc", dep.pos) {
			return nil
		}
		return &allocCause{pos: dep.pos, why: why}
	}
	if dep.dynamic != "" {
		return cause(dep.dynamic + " cannot be proven allocation-free")
	}
	for _, t := range dep.targets {
		if isInterfaceMethod(t) {
			return cause("interface call " + describeFunc(t) + " has no visible implementation; cannot be proven allocation-free")
		}
		if n := g.node(t); n != nil {
			if v := infos[n.fn].verdict; v != nil {
				return cause("call to " + describeFunc(t) + " allocates (" + v.why + ")")
			}
			continue
		}
		path := funcPkgPath(t)
		if internalPkg(path) != "" || path == "mgs" {
			fact := pass.FactsFor(path).Fact(funcID(t))
			switch {
			case fact == nil:
				return cause("call to " + describeFunc(t) + " has no exported fact; cannot be proven allocation-free")
			case fact.Allocates:
				return cause("call to " + describeFunc(t) + " allocates (" + fact.AllocWhy + ")")
			}
			continue
		}
		if why, clean := stdlibNoAlloc(t); !clean {
			return cause("call to " + describeFunc(t) + " " + why)
		}
	}
	return nil
}

// stdlibNoAlloc is the audited whitelist of standard-library callees
// usable from //mgs:noalloc code. Everything else is assumed to
// allocate.
func stdlibNoAlloc(f *types.Func) (why string, clean bool) {
	path := funcPkgPath(f)
	switch path {
	case "sync/atomic", "math", "math/bits":
		return "", true
	case "encoding/binary":
		// The fixed-endian accessors are pure bit twiddling; the
		// reflective Read/Write are not.
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			if n := namedType(sig.Recv().Type()); n != nil {
				name := n.Obj().Name()
				if name == "littleEndian" || name == "bigEndian" {
					return "", true
				}
			}
		}
	case "sync":
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			if n := namedType(sig.Recv().Type()); n != nil {
				switch n.Obj().Name() {
				case "Mutex", "RWMutex", "WaitGroup":
					return "", true
				case "Pool":
					// Steady-state clean: Get reuses and Put stores; only a
					// cold pool invokes New.
					if f.Name() == "Get" || f.Name() == "Put" {
						return "", true
					}
				}
			}
		}
	}
	return "is not on the no-allocation stdlib whitelist", false
}

// ---------------------------------------------------------------------
// Local construct scan.

// scanAllocs finds every allocating construct in fd's body (function
// literals folded in), filtered through //mgslint:allow noalloc.
func scanAllocs(pass *analysis.Pass, fd *ast.FuncDecl) []allocCause {
	info := pass.TypesInfo
	var causes []allocCause
	add := func(pos token.Pos, why string) {
		if pass.Allowed("noalloc", pos) {
			return
		}
		causes = append(causes, allocCause{pos: pos, why: why})
	}

	selfAppends := map[*ast.CallExpr]bool{} // append calls in v = append(v, ...) form
	calledFuns := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && isBuiltin(info, call, "append") &&
					len(call.Args) > 0 && sameRef(info, s.Lhs[0], call.Args[0]) {
					selfAppends[call] = true
				}
			}
		case *ast.CallExpr:
			calledFuns[ast.Unparen(s.Fun)] = true
		}
		return true
	})

	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			scanCall(pass, e, stack, selfAppends, add)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					add(e.Pos(), "composite literal escapes to the heap (&T{...})")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					add(e.Pos(), "map literal allocates")
				case *types.Slice:
					add(e.Pos(), "slice literal allocates its backing array")
				}
			}
		case *ast.FuncLit:
			if capturesOuter(info, fd, e) {
				add(e.Pos(), "closure captures variables and allocates")
			}
		case *ast.SelectorExpr:
			if !calledFuns[e] {
				if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
					add(e.Pos(), "method value binds its receiver and allocates")
				}
			}
		case *ast.AssignStmt:
			scanAssign(pass, e, add)
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok && isMapIndex(info, ix) {
				add(e.Pos(), "map assignment may allocate a bucket")
			}
		case *ast.DeclStmt:
			scanDeclStmt(pass, e, add)
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := info.Types[e]; ok && isStringType(tv.Type) {
					add(e.Pos(), "string concatenation allocates")
				}
			}
		case *ast.ReturnStmt:
			scanReturn(pass, e, stack, fd, add)
		case *ast.GoStmt:
			add(e.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			if inLoop(stack) {
				add(e.Pos(), "defer inside a loop allocates per iteration")
			}
		}
		stack = append(stack, n)
		return true
	})
	sort.Slice(causes, func(i, j int) bool { return causes[i].pos < causes[j].pos })
	return causes
}

// scanCall handles builtins, conversions, and argument boxing for one
// call expression.
func scanCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, selfAppends map[*ast.CallExpr]bool, add func(token.Pos, string)) {
	info := pass.TypesInfo
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		scanConversion(pass, call, tv.Type, add)
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !guardedGrow(stack) {
					add(call.Pos(), "make allocates (guard growth behind a cap/len high-water test to sanction it)")
				}
			case "new":
				add(call.Pos(), "new(T) allocates")
			case "append":
				if !selfAppends[call] {
					add(call.Pos(), "append to a different slice allocates (only the self-append v = append(v, ...) growth idiom is allocation-free in steady state)")
				}
			case "panic":
				// Failure path: the simulation is already dead.
			}
			return
		}
	}
	// Boxing at argument positions, and the variadic pack.
	sigT, ok := info.Types[fun]
	if !ok {
		return
	}
	sig, ok := sigT.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		j := i
		if j >= np {
			j = np - 1
		}
		if j < 0 {
			break
		}
		pt := sig.Params().At(j).Type()
		if sig.Variadic() && j == np-1 {
			if call.Ellipsis.IsValid() {
				continue // passing the slice through: no pack, no box
			}
			if i == j {
				add(arg.Pos(), "variadic call allocates its argument slice")
			}
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if boxes(info, arg, pt) {
			add(arg.Pos(), "argument conversion to interface boxes and allocates")
		}
	}
}

// scanConversion flags conversions that copy memory or box.
func scanConversion(pass *analysis.Pass, call *ast.CallExpr, target types.Type, add func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	info := pass.TypesInfo
	argT, ok := info.Types[call.Args[0]]
	if !ok {
		return
	}
	if boxes(info, call.Args[0], target) {
		add(call.Pos(), "conversion to interface boxes and allocates")
		return
	}
	toString := isStringType(target)
	fromString := isStringType(argT.Type)
	_, toSlice := target.Underlying().(*types.Slice)
	_, fromSlice := argT.Type.Underlying().(*types.Slice)
	switch {
	case toString && (fromSlice || isIntegerType(argT.Type)):
		add(call.Pos(), "conversion to string copies and allocates")
	case toSlice && fromString:
		add(call.Pos(), "string-to-slice conversion copies and allocates")
	}
}

// scanAssign flags map inserts, string +=, and interface boxing on
// plain assignment.
func scanAssign(pass *analysis.Pass, s *ast.AssignStmt, add func(token.Pos, string)) {
	info := pass.TypesInfo
	for _, lhs := range s.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, ix) {
			add(lhs.Pos(), "map assignment may allocate a bucket")
		}
	}
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
		if tv, ok := info.Types[s.Lhs[0]]; ok && isStringType(tv.Type) {
			add(s.Pos(), "string concatenation allocates")
		}
	}
	if s.Tok == token.ASSIGN && len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			if tv, ok := info.Types[s.Lhs[i]]; ok {
				if boxes(info, s.Rhs[i], tv.Type) {
					add(s.Rhs[i].Pos(), "assignment to interface boxes and allocates")
				}
			}
		}
	}
}

// scanDeclStmt flags `var x I = concrete` boxing inside a body.
func scanDeclStmt(pass *analysis.Pass, d *ast.DeclStmt, add func(token.Pos, string)) {
	info := pass.TypesInfo
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || vs.Type == nil {
			continue
		}
		tv, ok := info.Types[vs.Type]
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			if boxes(info, v, tv.Type) {
				add(v.Pos(), "assignment to interface boxes and allocates")
			}
		}
	}
}

// scanReturn flags boxing at return sites against the innermost
// function's declared results.
func scanReturn(pass *analysis.Pass, r *ast.ReturnStmt, stack []ast.Node, fd *ast.FuncDecl, add func(token.Pos, string)) {
	info := pass.TypesInfo
	var sig *types.Signature
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			if tv, ok := info.Types[lit]; ok {
				sig, _ = tv.Type.(*types.Signature)
			}
			break
		}
	}
	if sig == nil {
		if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
			sig, _ = obj.Type().(*types.Signature)
		}
	}
	if sig == nil || sig.Results().Len() != len(r.Results) {
		return
	}
	for i, res := range r.Results {
		if boxes(info, res, sig.Results().At(i).Type()) {
			add(res.Pos(), "return value conversion to interface boxes and allocates")
		}
	}
}

// boxes reports whether assigning expr to a target of type to performs
// an allocating interface conversion: the target is an interface, the
// value is concrete, and its representation is not pointer-shaped.
func boxes(info *types.Info, expr ast.Expr, to types.Type) bool {
	if to == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[ast.Unparen(expr)]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	from := tv.Type
	if _, ok := from.Underlying().(*types.Interface); ok {
		return false // interface-to-interface: no new box
	}
	switch u := from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// guardedGrow reports whether the node at the top of stack sits inside
// an if-statement whose condition tests cap or len: the sanctioned
// high-water growth idiom (e.g. DiffBuf.Compute's
// `if cap(b.data) < total { b.data = make(...) }`).
func guardedGrow(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// inLoop reports whether any enclosing statement on the stack is a
// for/range loop.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// capturesOuter reports whether lit references a variable declared in
// fd outside lit (including parameters and receivers): such a closure
// must heap-allocate its environment.
func capturesOuter(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < lit.Pos() {
			captured = true
		}
		return true
	})
	return captured
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// sameRef reports whether a and b are structurally the same variable
// reference (ident resolving to one object, or a selector chain over
// the same base with the same fields).
func sameRef(info *types.Info, a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch ae := a.(type) {
	case *ast.Ident:
		be, ok := b.(*ast.Ident)
		return ok && info.ObjectOf(ae) != nil && info.ObjectOf(ae) == info.ObjectOf(be)
	case *ast.SelectorExpr:
		be, ok := b.(*ast.SelectorExpr)
		return ok && ae.Sel.Name == be.Sel.Name && sameRef(info, ae.X, be.X)
	}
	return false
}

func isMapIndex(info *types.Info, ix *ast.IndexExpr) bool {
	tv, ok := info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
