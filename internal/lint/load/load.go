// Package load turns `go list` package metadata into parsed, type-checked
// packages for the analyzers — a standard-library stand-in for
// golang.org/x/tools/go/packages. Import resolution uses the compiler
// export data the build cache already holds: `go list -export -deps`
// names an export file for every dependency (including the module's own
// packages), and go/importer's gc importer reads those files through a
// lookup function, so no package is ever type-checked twice and the whole
// load works offline.
//
// Packages are returned in dependency order — every package appears after
// the packages it imports (among those loaded) — which is what lets
// softlora-lint solve a dependency's offenses before any of its dependees
// look them up (see internal/lint/analysis.Pass.Solved).
//
// With Options.Tests, `go list -test` is used instead and the load also
// yields each package's test variants: the internal variant
// ("p [p.test]", the package's own files plus its _test.go files) and the
// external test package ("p_test [p.test]"). Test variants are
// type-checked under their plain import path — exactly how the compiler
// builds them — and their imports are remapped through go list's
// ImportMap, so an external test package resolves its import of "p" to
// the test variant's export data, never the plain build's.
package load

import (
	"bytes"
	"encoding/json"
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
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// PkgPath is the full `go list` import path, including the
	// " [p.test]" suffix on test variants.
	PkgPath string
	// ForTest names the package under test for test variants ("" for
	// ordinary packages). Analyzers use it to tell test-variant loads
	// apart from plain ones (package-level directive scoping must not
	// leak into test code).
	ForTest string
	Dir     string
	// Imports are the package's direct imports after ImportMap
	// resolution, restricted to packages in the same load (the edges the
	// dependency ordering is computed from).
	Imports   []string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Options configures a Load.
type Options struct {
	// Tests also loads each matched package's test variants (go list
	// -test): the augmented internal variant and the external _test
	// package. Generated test mains (the ".test" binaries) are never
	// returned.
	Tests bool
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	ForTest    string
	Export     string
	Standard   bool
}

func goList(dir string, args ...string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Load parses and type-checks the packages matched by patterns (./... by
// default) with default options. dir is the module directory the patterns
// are interpreted in.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return LoadPackages(dir, Options{}, patterns...)
}

// LoadPackages parses and type-checks the packages matched by patterns
// (./... by default), resolving their imports from build-cache export
// data. The returned slice is in dependency order: a package always
// follows every package it imports that is also in the slice.
func LoadPackages(dir string, opts Options, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listFlags := []string{"-json=ImportPath,Dir,Name,GoFiles,Imports,ImportMap,ForTest"}
	if opts.Tests {
		listFlags = append(listFlags, "-test")
	}
	targets, err := goList(dir, append(listFlags, patterns...)...)
	if err != nil {
		return nil, err
	}
	// -export builds (or reuses) export data for every dependency; the
	// -deps closure covers the targets' own imports of each other,
	// including test variants when -test is on.
	depFlags := []string{"-export", "-deps", "-json=ImportPath,Export,Standard"}
	if opts.Tests {
		depFlags = append(depFlags, "-test")
	}
	deps, err := goList(dir, append(depFlags, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, e := range deps {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range order(targets) {
		if len(t.GoFiles) == 0 || isTestMain(t) {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := NewInfo()
		conf := types.Config{Importer: &mappedImporter{gc: gc, m: t.ImportMap}}
		// Test variants type-check under their plain path, matching how
		// the compiler names them; exports map lookups still use the full
		// bracketed path via ImportMap.
		checkPath := t.ImportPath
		if t.ForTest != "" {
			checkPath = t.ForTest
			if t.Name != "" && strings.HasSuffix(t.Name, "_test") {
				checkPath += "_test"
			}
		}
		tpkg, err := conf.Check(checkPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath:   t.ImportPath,
			ForTest:   t.ForTest,
			Dir:       t.Dir,
			Imports:   resolvedImports(t),
			Fset:      fset,
			Syntax:    files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}

// isTestMain reports whether an entry is a generated test binary main
// package — go list -test's "p.test" entries, whose single source file
// lives in the build cache. They carry no contracts worth checking.
func isTestMain(t listEntry) bool {
	return strings.HasSuffix(t.ImportPath, ".test") && t.Name == "main"
}

// resolvedImports maps an entry's imports through its ImportMap (vendor
// and test-variant remappings).
func resolvedImports(t listEntry) []string {
	out := make([]string, 0, len(t.Imports))
	for _, imp := range t.Imports {
		if mapped, ok := t.ImportMap[imp]; ok {
			imp = mapped
		}
		out = append(out, imp)
	}
	return out
}

// order sorts entries into dependency order: every entry appears after
// all entries it imports (resolved through ImportMap) that are in the
// set. Ties — and the starting order — are lexical by import path, so
// the result is deterministic for a given target set. Import cycles
// cannot occur between Go packages; test-variant self-references are cut
// by the bracketed-name distinction.
func order(targets []listEntry) []listEntry {
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	byPath := make(map[string]int, len(targets))
	for i, t := range targets {
		byPath[t.ImportPath] = i
	}
	var out []listEntry
	state := make([]int, len(targets)) // 0 unvisited, 1 visiting, 2 done
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		for _, imp := range resolvedImports(targets[i]) {
			if j, ok := byPath[imp]; ok && state[j] == 0 {
				visit(j)
			}
		}
		state[i] = 2
		out = append(out, targets[i])
	}
	for i := range targets {
		visit(i)
	}
	return out
}

// mappedImporter resolves import paths through a go list ImportMap before
// delegating to the export-data importer, so a test package's import of
// "p" reaches the test variant "p [p.test]" it was actually compiled
// against.
type mappedImporter struct {
	gc types.Importer
	m  map[string]string
}

func (mi *mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	return mi.gc.Import(path)
}

// NewInfo returns a types.Info with every map the analyzers consume
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
