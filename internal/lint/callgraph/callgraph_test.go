package callgraph

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkPkg typechecks one in-memory source file into a *Package. Files may
// only import packages previously checked in the same test (resolved via
// prev) or nothing at all, so the tests stay hermetic.
func checkPkg(t *testing.T, fset *token.FileSet, path, src string, prev map[string]*types.Package) *Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: mapImporter(prev)}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	if prev != nil {
		prev[path] = pkg
	}
	return &Package{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	// Fall back to export data for the standard library so fixtures can
	// reference e.g. time.Now as a leaf.
	return importer.Default().Import(path)
}

// edgesOf returns "calleeKey[/dynamic][/panic]" strings for a node's
// out-edges in their stored order.
func edgesOf(n *Node) []string {
	var out []string
	for _, e := range n.Out {
		s := strings.ReplaceAll(e.Callee.Key, "\x00", ".")
		if e.Dynamic {
			s += "/dynamic"
		}
		if e.InPanic {
			s += "/panic"
		}
		out = append(out, s)
	}
	return out
}

func TestStaticEdges(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

func f() { g(); h() }
func g() {}
func h() { g() }
`, nil)
	g := Build([]*Package{p})

	n := g.NodeByKey("a\x00\x00f")
	if n == nil {
		t.Fatal("no node for a.f")
	}
	got := edgesOf(n)
	want := []string{"a..g", "a..h"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("f edges = %v, want %v", got, want)
	}
	for _, e := range n.Out {
		if e.Dynamic {
			t.Errorf("static call to %s marked dynamic", e.Callee.Key)
		}
	}
}

func TestExternalLeafNodes(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

import "time"

func f() time.Time { return time.Now() }
`, nil)
	g := Build([]*Package{p})

	n := g.NodeByKey("a\x00\x00f")
	if n == nil || len(n.Out) != 1 {
		t.Fatalf("a.f edges = %v, want exactly the time.Now leaf", edgesOf(n))
	}
	leaf := n.Out[0].Callee
	if leaf.Key != "time\x00\x00Now" {
		t.Errorf("callee key = %q, want time..Now", strings.ReplaceAll(leaf.Key, "\x00", "."))
	}
	if leaf.Decl != nil {
		t.Error("external leaf has syntax; want Decl == nil")
	}
}

func TestInterfaceCallResolvesToImplementsSet(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

type Runner interface{ Run() }

type A struct{}
func (A) Run() {}

type B struct{}
func (*B) Run() {}

type C struct{}
func (C) Run(x int) {} // wrong signature: not in the set

func drive(r Runner) { r.Run() }
`, nil)
	g := Build([]*Package{p})

	n := g.NodeByKey("a\x00\x00drive")
	got := edgesOf(n)
	want := []string{"a.A.Run/dynamic", "a.B.Run/dynamic"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("drive edges = %v, want %v", got, want)
	}
}

func TestFuncValueCallResolvesBySignature(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

func inc(x int) int { return x + 1 }
func dec(x int) int { return x - 1 }
func name(s string) string { return s }

func apply(f func(int) int, v int) int { return f(v) }
`, nil)
	g := Build([]*Package{p})

	n := g.NodeByKey("a\x00\x00apply")
	got := edgesOf(n)
	// Both int->int functions match; the string one does not.
	want := []string{"a..dec/dynamic", "a..inc/dynamic"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("apply edges = %v, want %v", got, want)
	}
}

func TestPanicArgumentEdgesMarked(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

func msg() string { return "boom" }
func ok() {}

func f() {
	ok()
	panic(msg())
}
`, nil)
	g := Build([]*Package{p})

	n := g.NodeByKey("a\x00\x00f")
	got := edgesOf(n)
	want := []string{"a..ok", "a..msg/panic"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("f edges = %v, want %v", got, want)
	}
}

func TestNodesDeterministicOrder(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

func zebra() {}
func apple() {}
func mango() {}
`, nil)
	for i := 0; i < 3; i++ {
		g := Build([]*Package{p})
		var keys []string
		for _, n := range g.Nodes() {
			keys = append(keys, n.Key)
		}
		if !sortedStrings(keys) {
			t.Fatalf("run %d: Nodes() not sorted by key: %v", i, keys)
		}
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

func TestObjectKeyNormalizesTestVariants(t *testing.T) {
	// Packages "p" and "p [p.test]" must key identically; the raw path is
	// all ObjectKey consumes, so exercise normPath directly plus a method
	// receiver through a real checked package.
	if normPath("softlora/internal/dsp [softlora/internal/dsp.test]") != "softlora/internal/dsp" {
		t.Error("normPath does not strip the test-variant suffix")
	}

	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

type T struct{}
func (t *T) M() {}
func F() {}
`, nil)
	g := Build([]*Package{p})
	if g.NodeByKey("a\x00T\x00M") == nil {
		t.Error("method key missing receiver type name")
	}
	if g.NodeByKey("a\x00\x00F") == nil {
		t.Error("plain function key missing")
	}
}

func TestSolvePropagatesChains(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

func leaf() {}
func mid()  { leaf() }
func root() { mid() }
func clean() {}
`, nil)
	g := Build([]*Package{p})

	rule := &Rule{
		Solved: map[string]*Offense{},
		Direct: func(n *Node) *Offense {
			if n.Func.Name() == "leaf" {
				return &Offense{Detail: "does the bad thing"}
			}
			return nil
		},
	}
	rule.Solve(g.Nodes())

	// The analyzers report at a root's call edge using the *callee's*
	// offense: its chain runs from the callee (exclusive) to the offender.
	if off := rule.Lookup(g.NodeByKey("a\x00\x00root")); off == nil {
		t.Fatal("root: no propagated offense")
	}
	sub := rule.Lookup(g.NodeByKey("a\x00\x00mid"))
	if sub == nil {
		t.Fatal("mid: no propagated offense")
	}
	if got := sub.Format("a.root", "a.mid"); got != "a.root → a.mid → a.leaf: a.leaf does the bad thing" {
		t.Errorf("chain format = %q", got)
	}
	if clean := rule.Lookup(g.NodeByKey("a\x00\x00clean")); clean != nil {
		t.Errorf("clean function has offense %v", clean)
	}
}

func TestSolveEdgeOKCutsPropagation(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

func leaf() {}
func mid()  { leaf() }
func root() { mid() }
`, nil)
	g := Build([]*Package{p})

	mid := g.NodeByKey("a\x00\x00mid")
	rule := &Rule{
		Solved: map[string]*Offense{},
		Direct: func(n *Node) *Offense {
			if n.Func.Name() == "leaf" {
				return &Offense{Detail: "does the bad thing"}
			}
			return nil
		},
		// Hatch the mid→leaf edge: nothing should reach root.
		EdgeOK: func(e *Edge) bool { return e.Caller == mid },
	}
	rule.Solve(g.Nodes())
	if off := rule.Lookup(g.NodeByKey("a\x00\x00root")); off != nil {
		t.Errorf("root offense survived a hatched edge: %v", off)
	}
}

func TestSolveSkipsPanicEdges(t *testing.T) {
	fset := token.NewFileSet()
	p := checkPkg(t, fset, "a", `package a

func bad() {}
func f() {
	if false {
		panic(badMsg())
	}
}
func badMsg() string { bad(); return "x" }
`, nil)
	g := Build([]*Package{p})

	rule := &Rule{
		Solved: map[string]*Offense{},
		Direct: func(n *Node) *Offense {
			if n.Func.Name() == "bad" {
				return &Offense{Detail: "does the bad thing"}
			}
			return nil
		},
	}
	rule.Solve(g.Nodes())
	// f's only route to bad is through a panic argument; propagation must
	// not cross it.
	if off := rule.Lookup(g.NodeByKey("a\x00\x00f")); off != nil {
		t.Errorf("offense crossed a panic-argument edge: %v", off)
	}
	// badMsg itself still offends (its call to bad is a normal statement).
	if off := rule.Lookup(g.NodeByKey("a\x00\x00badMsg")); off == nil {
		t.Error("badMsg lost its non-panic offense")
	}
}

func TestSolveReadsEarlierPackages(t *testing.T) {
	fset := token.NewFileSet()
	prev := map[string]*types.Package{}
	dep := checkPkg(t, fset, "dep", `package dep

func leaf()   {}
func Helper() { leaf() }
`, prev)
	top := checkPkg(t, fset, "top", `package top

import "dep"

func Use() { dep.Helper() }
`, prev)
	g := Build([]*Package{dep, top})
	nodesOf := func(path string) []*Node {
		var out []*Node
		for _, n := range g.Nodes() {
			if strings.HasPrefix(n.Key, path+"\x00") {
				out = append(out, n)
			}
		}
		return out
	}
	direct := func(n *Node) *Offense {
		if n.Func.Name() == "leaf" {
			return &Offense{Detail: "does the bad thing"}
		}
		return nil
	}
	use := g.NodeByKey("top\x00\x00Use")

	// Solving top alone knows nothing of dep: the callee is declared in
	// the load but was never solved.
	alone := &Rule{Direct: direct, Solved: map[string]*Offense{}}
	alone.Solve(nodesOf("top"))
	if off := alone.Lookup(use); off != nil {
		t.Errorf("top solved without dep found %v", off)
	}

	// In dependency order with one map, dep's offenses carry into top.
	shared := &Rule{Direct: direct, Solved: map[string]*Offense{}}
	shared.Solve(nodesOf("dep"))
	shared.Solve(nodesOf("top"))
	off := shared.Lookup(use)
	if off == nil {
		t.Fatal("top.Use: dep's offense not carried across packages")
	}
	if got := fmt.Sprint(off.Chain); got != "[dep.Helper dep.leaf]" {
		t.Errorf("top.Use chain = %s", got)
	}
	if len(shared.Solved) != 3 {
		t.Errorf("solved map holds %d offenses, want 3 (leaf, Helper, Use)", len(shared.Solved))
	}
}

func TestCrossPackageStaticEdges(t *testing.T) {
	fset := token.NewFileSet()
	prev := map[string]*types.Package{}
	dep := checkPkg(t, fset, "dep", `package dep

func Helper() {}
`, prev)
	top := checkPkg(t, fset, "top", `package top

import "dep"

func Use() { dep.Helper() }
`, prev)
	g := Build([]*Package{dep, top})

	n := g.NodeByKey("top\x00\x00Use")
	got := edgesOf(n)
	want := []string{"dep..Helper"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Use edges = %v, want %v", got, want)
	}
	// The callee is part of the load, so it must carry syntax.
	if n.Out[0].Callee.Decl == nil {
		t.Error("in-load callee has no syntax")
	}
}
