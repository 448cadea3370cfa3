package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"softlora/internal/lint/callgraph"
)

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks one in-memory file at path.
func check(t *testing.T, fset *token.FileSet, path, src string, imp types.Importer) *callgraph.Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+".go", src, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return &callgraph.Package{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

func TestImportAcrossTypeUniverses(t *testing.T) {
	// The recording pass sees p through its test variant; the reading
	// pass sees a distinct types object for (*T).M, from q's import of
	// the plain build. The shared Solved map must unify them.
	const pSrc = `package p

type T struct{}
func (t *T) M() { leaf() }

type U struct{}
func (u *U) M() {}

func leaf() {}
`
	fset := token.NewFileSet()
	variant := check(t, fset, "example/p [example/p.test]", pSrc, nil)
	plain := check(t, fset, "example/p", pSrc, nil)
	q := check(t, fset, "example/q", `package q

import "example/p"

func UseT(t *p.T) { t.M() }
func UseU(u *p.U) { u.M() }
`, importerFunc(func(path string) (*types.Package, error) {
		if path != "example/p" {
			return nil, fmt.Errorf("unexpected import %q", path)
		}
		return plain.Pkg, nil
	}))
	if variant.Pkg.Scope().Lookup("T") == plain.Pkg.Scope().Lookup("T") {
		t.Fatal("test variant and plain build share a types universe")
	}

	g := callgraph.Build([]*callgraph.Package{variant, q})
	solved := map[string]*callgraph.Offense{}
	var diags []Diagnostic
	pass := func(p *callgraph.Package) *Pass {
		return &Pass{
			Fset:      fset,
			Files:     p.Files,
			TypesInfo: p.Info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
			CallGraph: g,
			Solved:    solved,
		}
	}
	rule := func() *callgraph.Rule {
		return &callgraph.Rule{Direct: func(n *callgraph.Node) *callgraph.Offense {
			if n.Func.Name() == "leaf" {
				return &callgraph.Offense{Detail: "allocates"}
			}
			return nil
		}}
	}
	pass(variant).Propagate(rule(), func(*ast.FuncDecl) bool { return false }, "reaches leaf")
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package reported %d diagnostics", len(diags))
	}
	pass(q).Propagate(rule(), func(*ast.FuncDecl) bool { return true }, "reaches leaf")

	// UseT reaches leaf through the variant's (*T).M; the same method
	// name on another receiver must not match.
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (UseT only): %+v", len(diags), diags)
	}
	if got := fmt.Sprint(diags[0].Chain); got != "[q.UseT p.T.M p.leaf]" {
		t.Errorf("chain = %s", got)
	}
	if got := diags[0].Message; got != "reaches leaf: q.UseT → p.T.M → p.leaf: p.leaf allocates" {
		t.Errorf("message = %q", got)
	}
}
