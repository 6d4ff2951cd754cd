package lint

import (
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mgs/internal/lint/analysis"
)

// loadFixture type-checks one fixture package (no fixture-tree imports)
// and returns a pass over it.
func loadFixture(t *testing.T, dir, path string) *analysis.Pass {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := NewTypesInfo()
	var srcs []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		srcs = append(srcs, filepath.Join(dir, e.Name()))
	}
	sort.Strings(srcs)
	pass := &analysis.Pass{Fset: fset, TypesInfo: info}
	for _, name := range srcs {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pass.Files = append(pass.Files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(path, fset, pass.Files, info)
	if err != nil {
		t.Fatal(err)
	}
	pass.Pkg = pkg
	return pass
}

func targetsOf(t *testing.T, g *callGraph, fnID string) [][]string {
	t.Helper()
	fn := g.byID[fnID]
	if fn == nil {
		t.Fatalf("no node for %s", fnID)
	}
	var out [][]string
	for _, site := range g.nodes[fn].sites {
		var ids []string
		if site.dynamic != "" {
			ids = append(ids, "dynamic:"+site.dynamic)
		}
		for _, tg := range site.targets {
			ids = append(ids, funcID(tg))
		}
		sort.Strings(ids)
		out = append(out, ids)
	}
	return out
}

func TestCallGraphCHA(t *testing.T) {
	pass := loadFixture(t, "testdata/callgraph/src/mgs/internal/cache", "mgs/internal/cache")
	g := buildCallGraph(pass, nil)

	// Interface dispatch over-approximates to every visible
	// implementation — the CHA contract this suite depends on.
	got := targetsOf(t, g, "UseIface")
	want := [][]string{{"(MapStore).Get", "(SliceStore).Get"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UseIface targets = %v, want %v", got, want)
	}

	// A concrete receiver resolves to exactly one method.
	got = targetsOf(t, g, "UseStatic")
	want = [][]string{{"(MapStore).Get"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UseStatic targets = %v, want %v", got, want)
	}

	// A method value is an edge: the bound method may run later.
	got = targetsOf(t, g, "Bind")
	want = [][]string{{"(MapStore).Get"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Bind targets = %v, want %v", got, want)
	}

	// A call through a function value stays dynamic.
	got = targetsOf(t, g, "Dyn")
	if len(got) != 1 || len(got[0]) != 1 || !strings.HasPrefix(got[0][0], "dynamic:") {
		t.Errorf("Dyn targets = %v, want one dynamic site", got)
	}
}

func TestFuncIDCanonical(t *testing.T) {
	pass := loadFixture(t, "testdata/callgraph/src/mgs/internal/cache", "mgs/internal/cache")
	g := buildCallGraph(pass, nil)
	for _, id := range []string{"UseIface", "(MapStore).Get", "(SliceStore).Get"} {
		if g.byID[id] == nil {
			t.Errorf("byID[%q] missing; have %v", id, byIDKeys(g))
		}
	}
}

func byIDKeys(g *callGraph) []string {
	var ks []string
	for k := range g.byID {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestFactsRoundTrip pins the .vetx wire format: what one driver
// encodes, another decodes, field for field.
func TestFactsRoundTrip(t *testing.T) {
	in := &analysis.PackageFacts{
		Path: "mgs/internal/msync",
		Funcs: map[string]*analysis.FuncFact{
			"(System).Deposit": {
				Allocates: true,
				AllocWhy:  "msync.go:12: make allocates",
				TaintBits: analysis.TaintMapOrder | analysis.TaintRandom,
				TaintWhy:  "map iteration at msync.go:20",
				PropParams: []int{0, 2},
				SinkParams: []analysis.SinkParam{{Index: 1, Why: "charged cycles (Proc.Advance)"}},
			},
			"Clean": {},
		},
	}
	data, err := analysis.EncodeFacts(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := analysis.DecodeFacts(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
	// The empty payload cmd/go writes for factless packages decodes to
	// nil, and nil-safe accessors stay quiet.
	np, err := analysis.DecodeFacts(nil)
	if err != nil || np != nil {
		t.Errorf("DecodeFacts(nil) = %v, %v; want nil, nil", np, err)
	}
	if np.Fact("anything") != nil {
		t.Error("nil PackageFacts accessor must return nil")
	}
}
