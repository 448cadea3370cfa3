package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"softlora/internal/lint"
	"softlora/internal/lint/analysis"
	"softlora/internal/lint/load"
)

func names(as []*analysis.Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

func TestSelectAnalyzersEmptyKeepsAll(t *testing.T) {
	all := lint.Analyzers()
	got, err := selectAnalyzers(all, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Errorf("empty -only filtered the suite: %v", names(got))
	}
}

func TestSelectAnalyzersFilters(t *testing.T) {
	all := lint.Analyzers()
	got, err := selectAnalyzers(all, "allocfree, determinism")
	if err != nil {
		t.Fatal(err)
	}
	n := names(got)
	if len(n) != 2 || n[0] == n[1] {
		t.Fatalf("filtered = %v", n)
	}
	for _, name := range n {
		if name != "allocfree" && name != "determinism" {
			t.Errorf("unexpected analyzer %q in filtered suite", name)
		}
	}
	// Suite order is preserved, not -only order.
	if idx(all, n[0]) > idx(all, n[1]) {
		t.Errorf("filtered suite reordered: %v", n)
	}
}

func idx(all []*analysis.Analyzer, name string) int {
	for i, a := range all {
		if a.Name == name {
			return i
		}
	}
	return -1
}

func TestSelectAnalyzersUnknownNameErrors(t *testing.T) {
	all := lint.Analyzers()
	_, err := selectAnalyzers(all, "allocfree,alocfree,determinsm")
	if err == nil {
		t.Fatal("unknown analyzer names silently dropped")
	}
	msg := err.Error()
	// Both typos are listed, as are the known names for correction.
	for _, want := range []string{"alocfree", "determinsm", "lockshard"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
	// The valid name must not be reported as unknown: the unknown list
	// comes before the "(known: ...)" suffix.
	if pre, _, ok := strings.Cut(msg, "(known:"); ok {
		if strings.Contains(pre, "allocfree,") || strings.Contains(strings.TrimSuffix(pre, " "), " allocfree ") {
			t.Errorf("valid name listed among unknowns: %q", pre)
		}
	} else {
		t.Errorf("error %q lacks the known-analyzers suffix", msg)
	}
}

func TestSelectAnalyzersAllUnknown(t *testing.T) {
	if _, err := selectAnalyzers(lint.Analyzers(), "nope"); err == nil {
		t.Error("entirely unknown -only accepted")
	}
}

func TestSelectAnalyzersOnlyCommasErrors(t *testing.T) {
	// Stray separators with no names select nothing; that must be loud,
	// not a no-op run that reports success.
	if _, err := selectAnalyzers(lint.Analyzers(), ", ,"); err == nil {
		t.Error("-only with no usable names accepted")
	}
}

func TestUnknownDirectivesReported(t *testing.T) {
	// Every analyzer's directives are known, whichever analyzers -only
	// selects; a misspelled annotation or hatch is a finding, and so is a
	// leftover hatch of an analyzer the suite no longer runs.
	const src = `//softlora:deterministic
package p

//softlora:allocfree
func a() {
	_ = 1 //softlora:allocfree-ok hatch
	_ = 2 //softlora:nondeterministic-ok hatch
	_ = 3 //softlora:bufpool-ok hatch
	_ = 4 //softlora:lock-ok hatch
}

//softlora:alocfree
func b() {}

type s struct {
	n int //softlora:guarded-by mu
}

//softlora:locked
func (*s) c() {}

//softlora:nondeterminism-ok
func d() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := unknownDirectives([]*load.Package{{Fset: fset, Syntax: []*ast.File{f}}})
	want := []struct {
		line int
		name string
	}{{8, "bufpool-ok"}, {12, "alocfree"}, {22, "nondeterminism-ok"}}
	if len(got) != len(want) {
		t.Fatalf("findings = %+v, want %d", got, len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Line != w.line || g.Analyzer != "directive" || !strings.Contains(g.Message, "//softlora:"+w.name+":") {
			t.Errorf("finding %d = %+v, want //softlora:%s at line %d", i, g, w.name, w.line)
		}
	}
}

func TestRunAnalyzersCarriesChainsAcrossPackages(t *testing.T) {
	// testdata/crosspkg is a module of its own: package a's annotated
	// roots call into un-annotated package b, which reads the wall clock
	// and allocates. The findings exist only if runAnalyzers hands a's
	// passes the offenses it solved for b; a's test file adds its test
	// variant, whose repeat of a's findings must dedupe away.
	pkgs, err := load.LoadPackages(filepath.Join("testdata", "crosspkg"), load.Options{Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	got := sortFindings(runAnalyzers(lint.Analyzers(), pkgs))
	file := filepath.Join("testdata", "crosspkg", "a", "a.go")
	want := []finding{
		{file, 10, 31, "determinism",
			"deterministic code reaches nondeterminism: a.Verdict → b.Stamp: b.Stamp calls time.Now",
			[]string{"a.Verdict", "b.Stamp"}},
		{file, 15, 37, "allocfree",
			"allocfree function reaches an allocation: a.Fill → b.Grow: b.Grow allocates with make",
			[]string{"a.Fill", "b.Grow"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%+v\nwant:\n%+v", got, want)
	}
}
