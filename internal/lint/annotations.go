package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mgs/internal/lint/analysis"
)

// The //mgs: annotation grammar (DESIGN.md §6) has one directive:
//
//	//mgs:noalloc
//	    on a function or method declaration: the function, and
//	    everything it transitively calls, must not allocate. Checked by
//	    noalloc; escaped per call site with //mgslint:allow noalloc.
//
// Any other //mgs: comment, or one outside a function's doc comment, is
// a diagnostic rather than a silently ignored typo.

const mgsPrefix = "//mgs:"

// annDiag is a malformed-annotation finding, reported by noalloc.
type annDiag struct {
	pos token.Pos
	msg string
}

// mgsAnnotations is every //mgs: directive in one package.
type mgsAnnotations struct {
	noalloc map[*types.Func]token.Pos
	bad     []annDiag
}

// collectAnnotations parses every //mgs: directive of the pass's
// non-test files, validating placement and arguments.
func collectAnnotations(pass *analysis.Pass) *mgsAnnotations {
	a := &mgsAnnotations{noalloc: map[*types.Func]token.Pos{}}
	consumed := map[*ast.Comment]bool{}
	for _, f := range sourceFiles(pass) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				a.funcDirectives(pass, fd, consumed)
			}
		}
		// Anything left is misplaced or misspelled: say so rather than
		// silently enforcing nothing.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, mgsPrefix) && !consumed[c] {
					a.bad = append(a.bad, annDiag{c.Pos(),
						"misplaced //mgs: directive (only //mgs:noalloc, in the doc comment of a func, is valid): " + firstLine(c.Text)})
				}
			}
		}
	}
	return a
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func (a *mgsAnnotations) funcDirectives(pass *analysis.Pass, fd *ast.FuncDecl, consumed map[*ast.Comment]bool) {
	if fd.Doc == nil {
		return
	}
	for _, c := range fd.Doc.List {
		if !strings.HasPrefix(c.Text, mgsPrefix) {
			continue
		}
		consumed[c] = true
		verb, rest, _ := strings.Cut(strings.TrimPrefix(c.Text, mgsPrefix), " ")
		switch {
		case verb != "noalloc":
			a.bad = append(a.bad, annDiag{c.Pos(), "//mgs:" + verb + " is not a directive (only //mgs:noalloc is)"})
		case strings.TrimSpace(rest) != "":
			a.bad = append(a.bad, annDiag{c.Pos(),
				"//mgs:noalloc takes no arguments (use //mgslint:allow noalloc at a call site to escape one path)"})
		case fd.Body == nil:
			a.bad = append(a.bad, annDiag{c.Pos(), "//mgs:noalloc on a bodyless declaration enforces nothing"})
		default:
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				a.noalloc[obj] = c.Pos()
			}
		}
	}
}
