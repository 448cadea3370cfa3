package directive

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseFiles(t *testing.T, files map[string]string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var parsed []*ast.File
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		parsed = append(parsed, f)
	}
	return fset, parsed
}

func index(t *testing.T, files map[string]string) *Index {
	fset, parsed := parseFiles(t, files)
	return NewIndex(fset, parsed)
}

func TestPackageLevelDirective(t *testing.T) {
	ix := index(t, map[string]string{
		"doc.go": "// Package p does things.\n//\n//softlora:deterministic\npackage p\n",
	})
	if !ix.PackageHas("deterministic") {
		t.Error("package directive above the package clause not seen")
	}
	if !ix.PackageHasNonTest("deterministic") {
		t.Error("PackageHasNonTest misses a doc.go directive")
	}
}

func TestPackageDirectiveInTestFileScopesOnlyPackageHas(t *testing.T) {
	ix := index(t, map[string]string{
		"p_test.go": "//softlora:deterministic\npackage p\n",
	})
	if !ix.PackageHas("deterministic") {
		t.Error("PackageHas should see test-file package directives")
	}
	if ix.PackageHasNonTest("deterministic") {
		t.Error("PackageHasNonTest must ignore directives in _test.go files")
	}
}

func TestDirectiveBelowPackageClauseIsNotPackageLevel(t *testing.T) {
	ix := index(t, map[string]string{
		"a.go": "package p\n\n//softlora:deterministic\nfunc f() {}\n",
	})
	if ix.PackageHas("deterministic") {
		t.Error("a function-level directive counted as package-level")
	}
}

func TestLeadingSpaceDoesNotMatch(t *testing.T) {
	// "// softlora:" (space after the slashes) is prose, not a directive —
	// same rule as //go: directives.
	ix := index(t, map[string]string{
		"a.go": "package p\n\n// softlora:allocfree\nfunc f() {}\n\nfunc g() {\n\t_ = 1 // softlora:allocfree-ok not a real hatch\n}\n",
	})
	if len(ix.byName["allocfree"]) != 0 {
		t.Error("spaced comment parsed as a directive")
	}
	if len(ix.byName["allocfree-ok"]) != 0 {
		t.Error("spaced trailing comment parsed as a directive")
	}
}

func TestBareNameAndArgs(t *testing.T) {
	ix := index(t, map[string]string{
		"a.go": "package p\n\nfunc f() {\n\t_ = 1 //softlora:nondeterministic-ok map feeds a sorted encoder\n}\n",
	})
	ds := ix.byName["nondeterministic-ok"]
	if len(ds) != 1 {
		t.Fatalf("directives = %v", ds)
	}
	if ds[0].Args != "map feeds a sorted encoder" {
		t.Errorf("Args = %q", ds[0].Args)
	}
	// A bare "//softlora:" with no name is not a directive.
	ix2 := index(t, map[string]string{"a.go": "package p\n\n//softlora:\nfunc f() {}\n"})
	if len(ix2.all) != 0 {
		t.Errorf("nameless directive parsed: %v", ix2.all)
	}
}

func TestDirectiveOnLastLineOfFile(t *testing.T) {
	// No trailing newline after the comment: the file ends at the
	// directive.
	ix := index(t, map[string]string{
		"a.go": "package p\n\nvar x = 1 //softlora:lock-ok fixture tail",
	})
	ds := ix.byName["lock-ok"]
	if len(ds) != 1 {
		t.Fatalf("last-line directive not parsed: %v", ix.all)
	}
	if !ix.OKAt(ds[0].Pos, "lock-ok") {
		t.Error("OKAt misses a directive on its own line")
	}
}

func TestGroupedDeclDirectives(t *testing.T) {
	src := `package p

var (
	a = 1 //softlora:allocfree-ok grouped var trailing comment
	//softlora:allocfree-ok line above b
	b = 2
)

const (
	//softlora:lock-ok grouped const doc
	C = 3
)
`
	fset, files := parseFiles(t, map[string]string{"a.go": src})
	ix := NewIndex(fset, files)
	if n := len(ix.byName["allocfree-ok"]); n != 2 {
		t.Fatalf("grouped var directives = %d, want 2", n)
	}
	if n := len(ix.byName["lock-ok"]); n != 1 {
		t.Fatalf("grouped const directives = %d, want 1", n)
	}

	// OKAt: the hatch on a's line silences a's position; the hatch above b
	// silences b's.
	var aPos, bPos token.Pos
	ast.Inspect(files[0], func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			switch vs.Names[0].Name {
			case "a":
				aPos = vs.Pos()
			case "b":
				bPos = vs.Pos()
			}
		}
		return true
	})
	if !ix.OKAt(aPos, "allocfree-ok") {
		t.Error("same-line hatch in a grouped var decl not honored")
	}
	if !ix.OKAt(bPos, "allocfree-ok") {
		t.Error("line-above hatch in a grouped var decl not honored")
	}
	if ix.OKAt(aPos, "lock-ok") {
		t.Error("hatch name leaked across directives")
	}
}

func TestCRLFLineEndings(t *testing.T) {
	src := "package p\r\n\r\n//softlora:allocfree\r\nfunc f() {\r\n\t_ = 1 //softlora:allocfree-ok crlf trailing\r\n}\r\n"
	fset, files := parseFiles(t, map[string]string{"a.go": src})
	ix := NewIndex(fset, files)
	if len(ix.byName["allocfree"]) != 1 {
		t.Error("directive not parsed under CRLF line endings")
	}
	ds := ix.byName["allocfree-ok"]
	if len(ds) != 1 {
		t.Fatal("trailing directive not parsed under CRLF line endings")
	}
	if ds[0].Args != "crlf trailing" {
		t.Errorf("CRLF args carry the carriage return: %q", ds[0].Args)
	}
	// FuncHas through the parsed doc comment.
	for _, d := range files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			if !FuncHas(fd, "allocfree") {
				t.Error("FuncHas misses a CRLF doc directive")
			}
		}
	}
}

func TestMethodOnCrossFileReceiver(t *testing.T) {
	// The receiver type lives in one file, the annotated method in
	// another; FuncHas reads only the method's doc, so the split must not
	// matter.
	fset, files := parseFiles(t, map[string]string{
		"type.go":   "package p\n\ntype T struct{}\n",
		"method.go": "package p\n\n//softlora:allocfree\nfunc (t *T) Hot() {}\n",
	})
	ix := NewIndex(fset, files)
	found := false
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Hot" {
				continue
			}
			found = true
			if !FuncHas(fd, "allocfree") {
				t.Error("FuncHas misses a directive on a cross-file receiver method")
			}
		}
	}
	if !found {
		t.Fatal("method decl not found")
	}
	if ix.PackageHas("allocfree") {
		t.Error("method directive counted as package-level")
	}
}

func TestOKAtSameLineAndLineAbove(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //softlora:allocfree-ok same line
	//softlora:allocfree-ok line above
	_ = 2
	_ = 3
}
`
	fset, files := parseFiles(t, map[string]string{"a.go": src})
	ix := NewIndex(fset, files)

	pos := func(line int) token.Pos {
		var p token.Pos
		ast.Inspect(files[0], func(n ast.Node) bool {
			if n != nil && p == token.NoPos && fset.Position(n.Pos()).Line == line {
				if _, ok := n.(*ast.AssignStmt); ok {
					p = n.Pos()
				}
			}
			return true
		})
		return p
	}
	if !ix.OKAt(pos(4), "allocfree-ok") {
		t.Error("same-line hatch not honored")
	}
	if !ix.OKAt(pos(6), "allocfree-ok") {
		t.Error("line-above hatch not honored")
	}
	if ix.OKAt(pos(7), "allocfree-ok") {
		t.Error("hatch reached two lines down")
	}
}
