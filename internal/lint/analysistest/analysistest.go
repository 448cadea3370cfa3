// Package analysistest runs an analyzer over known-good/known-bad fixture
// packages and checks its diagnostics against `// want` expectations — the
// standard-library counterpart of golang.org/x/tools/go/analysis/analysistest,
// sharing its fixture layout: packages live under testdata/src/<path>, and
// a line that should be flagged carries a comment of the form
//
//	x := bad() // want `regexp matching the diagnostic`
//
// with one quoted or backquoted regexp per expected diagnostic on that
// line. Fixture packages may import each other (resolved under
// testdata/src, so a fixture tree can also stub a real import path) and
// the standard library (resolved from build-cache export data via
// `go list -export`).
//
// Run mirrors the softlora-lint driver's interprocedural machinery: the
// call graph is built over the named package and every fixture package it
// (transitively) imports, and the analyzer first runs over those
// dependencies in dependency order — diagnostics discarded, offenses
// recorded in the analyzer's solved map — and only then over the named
// package, whose diagnostics are checked. A fixture tree can therefore
// exercise cross-package propagation the way softlora-lint performs it.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"softlora/internal/lint/analysis"
	"softlora/internal/lint/callgraph"
	"softlora/internal/lint/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// stdExports caches `go list -export` lookups of standard-library export
// data across every fixture load in the test process.
var stdExports struct {
	sync.Mutex
	m map[string]string
}

func stdExportFile(path string) (string, error) {
	stdExports.Lock()
	defer stdExports.Unlock()
	if f, ok := stdExports.m[path]; ok {
		return f, nil
	}
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
	if err != nil {
		return "", fmt.Errorf("go list -export %s: %v", path, err)
	}
	f := strings.TrimSpace(string(out))
	if f == "" {
		return "", fmt.Errorf("no export data for %q", path)
	}
	if stdExports.m == nil {
		stdExports.m = make(map[string]string)
	}
	stdExports.m[path] = f
	return f, nil
}

// fixtureImporter resolves fixture-tree imports from source and everything
// else from standard-library export data.
type fixtureImporter struct {
	testdata string
	fset     *token.FileSet
	cache    map[string]*loaded
	// order lists fixture package paths in completion order: a package is
	// appended after every fixture package it imports (type-checking a
	// package drives its imports to completion first), i.e. dependency
	// order.
	order []string
	std   types.ImporterFrom
}

type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

func newFixtureImporter(testdata string, fset *token.FileSet) *fixtureImporter {
	imp := &fixtureImporter{testdata: testdata, fset: fset, cache: make(map[string]*loaded)}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := stdExportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
	imp.std = gc.(types.ImporterFrom)
	return imp
}

func (imp *fixtureImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(imp.testdata, "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		l := imp.load(path)
		return l.pkg, l.err
	}
	return imp.std.ImportFrom(path, imp.testdata, 0)
}

// load parses and type-checks the fixture package at testdata/src/<path>.
func (imp *fixtureImporter) load(path string) *loaded {
	if l, ok := imp.cache[path]; ok {
		return l
	}
	l := &loaded{}
	imp.cache[path] = l
	dir := filepath.Join(imp.testdata, "src", filepath.FromSlash(path))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		l.err = fmt.Errorf("fixture package %q: no Go files in %s", path, dir)
		return l
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(imp.fset, name, nil, parser.ParseComments)
		if err != nil {
			l.err = fmt.Errorf("parsing fixture %s: %v", name, err)
			return l
		}
		l.files = append(l.files, f)
	}
	l.info = load.NewInfo()
	conf := types.Config{Importer: imp}
	l.pkg, err = conf.Check(path, imp.fset, l.files, l.info)
	if err != nil {
		l.err = fmt.Errorf("type-checking fixture %q: %v", path, err)
		return l
	}
	imp.order = append(imp.order, path)
	return l
}

// expectation is one `// want` regexp at one file line.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`(?m)//\s*want\s+(.*)$`)

// parseWants extracts the `// want` expectations of a file, keyed by line.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) map[int][]*expectation {
	wants := make(map[int][]*expectation)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, pat := range splitPatterns(t, m[1]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", fset.Position(c.Pos()), pat, err)
				}
				wants[line] = append(wants[line], &expectation{re: re})
			}
		}
	}
	return wants
}

// splitPatterns tokenizes `"p1" "p2"` / backquoted want payloads.
func splitPatterns(t *testing.T, s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end == len(s) {
				t.Fatalf("unterminated want pattern: %s", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("bad want pattern %s: %v", s[:end+1], err)
			}
			pats = append(pats, unq)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("unterminated want pattern: %s", s)
			}
			pats = append(pats, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			t.Fatalf("want patterns must be quoted or backquoted: %s", s)
		}
	}
	return pats
}

// Run loads each fixture package under testdata/src, applies the analyzer
// — over the package's fixture dependencies first, solved offenses flowing
// forward as under softlora-lint — and checks every diagnostic against
// the `// want` expectations (and vice versa).
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, path := range pkgPaths {
		t.Run(path, func(t *testing.T) {
			fset := token.NewFileSet()
			imp := newFixtureImporter(testdata, fset)
			l := imp.load(path)
			if l.err != nil {
				t.Fatal(l.err)
			}

			// The whole fixture universe: the target and every fixture
			// package it pulled in, in dependency order.
			var cgPkgs []*callgraph.Package
			for _, p := range imp.order {
				dl := imp.cache[p]
				cgPkgs = append(cgPkgs, &callgraph.Package{Fset: fset, Files: dl.files, Pkg: dl.pkg, Info: dl.info})
			}
			graph := callgraph.Build(cgPkgs)
			solved := make(map[string]*callgraph.Offense)

			var diags []analysis.Diagnostic
			for _, p := range imp.order {
				dl := imp.cache[p]
				pass := &analysis.Pass{
					Fset:      fset,
					Files:     dl.files,
					TypesInfo: dl.info,
					CallGraph: graph,
					Solved:    solved,
				}
				if p == path {
					pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
				} else {
					// Dependency run: offenses only, diagnostics dropped
					// (they are checked when the dependency is named
					// directly).
					pass.Report = func(analysis.Diagnostic) {}
				}
				a.Run(pass)
			}

			wants := make(map[string]map[int][]*expectation)
			for _, f := range l.files {
				name := fset.Position(f.Pos()).Filename
				wants[name] = parseWants(t, fset, f)
			}
			for _, d := range diags {
				p := fset.Position(d.Pos)
				var exp *expectation
				for _, e := range wants[p.Filename][p.Line] {
					if !e.matched && e.re.MatchString(d.Message) {
						exp = e
						break
					}
				}
				if exp == nil {
					t.Errorf("%s:%d: unexpected diagnostic: %s", p.Filename, p.Line, d.Message)
					continue
				}
				exp.matched = true
			}
			for file, byLine := range wants {
				for line, exps := range byLine {
					for _, e := range exps {
						if !e.matched {
							t.Errorf("%s:%d: expected diagnostic matching %q, got none", file, line, e.re)
						}
					}
				}
			}
		})
	}
}
