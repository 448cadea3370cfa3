// Command softlora-lint is the multichecker for the repo's static
// contracts (see internal/lint): determinism, allocfree and lockshard run
// over every matched package and any finding fails the run.
// A //softlora: directive that no analyzer of the suite reads is a finding
// too (reported as "directive"), even when -only leaves that analyzer
// out: a misspelled annotation would otherwise leave its code unchecked.
//
// Usage:
//
//	softlora-lint [-only name,name] [-tests] [-json] [-list] [packages...]
//
// Packages default to ./... in the current directory and are analyzed in
// dependency order, so each transitive analyzer has solved a package's
// functions before any dependee looks them up. With -tests, each
// package's test variants are loaded and checked too. Diagnostics print
// as path:line:col: message (analyzer), sorted by position; -json emits
// them as a JSON array instead (one object per finding, with the
// interprocedural chain when the finding has one). The exit status is 1
// when any findings were reported, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"softlora/internal/lint"
	"softlora/internal/lint/analysis"
	"softlora/internal/lint/callgraph"
	"softlora/internal/lint/directive"
	"softlora/internal/lint/load"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	tests := flag.Bool("tests", false, "also load and check test files and external test packages")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := selectAnalyzers(analyzers, *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "softlora-lint: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := load.LoadPackages(".", load.Options{Tests: *tests}, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "softlora-lint: %v\n", err)
		os.Exit(2)
	}

	findings := sortFindings(append(runAnalyzers(analyzers, pkgs), unknownDirectives(pkgs)...))

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "softlora-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "softlora-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selectAnalyzers filters the suite by a -only value. Every name must
// match a known analyzer: a typo that silently dropped one check has
// historically meant a contract went unenforced for months, so unknown
// names are an error even when other names matched.
func selectAnalyzers(all []*analysis.Analyzer, only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	known := make(map[string]bool, len(all))
	var names []string
	for _, a := range all {
		known[a.Name] = true
		names = append(names, a.Name)
	}
	keep := make(map[string]bool)
	var unknown []string
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			unknown = append(unknown, name)
			continue
		}
		keep[name] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown analyzer(s) in -only: %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(names, ", "))
	}
	var filtered []*analysis.Analyzer
	for _, a := range all {
		if keep[a.Name] {
			filtered = append(filtered, a)
		}
	}
	if len(filtered) == 0 {
		return nil, fmt.Errorf("no analyzer matches -only=%s", only)
	}
	return filtered, nil
}

// finding is one diagnostic, shaped for both text and -json output.
type finding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

// newFinding positions a finding, with its file relative to the working
// directory when it lies below it.
func newFinding(fset *token.FileSet, pos token.Pos, analyzer, message string, chain []string) finding {
	p := fset.Position(pos)
	file := p.Filename
	if cwd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return finding{file, p.Line, p.Column, analyzer, message, chain}
}

// unknownDirectives reports every //softlora: directive in pkgs whose name
// no analyzer of the whole suite declares — the -only selection does not
// narrow what is known.
func unknownDirectives(pkgs []*load.Package) []finding {
	known := make(map[string]bool)
	for _, a := range lint.Analyzers() {
		for _, name := range a.Directives {
			known[name] = true
		}
	}
	var findings []finding
	for _, pkg := range pkgs {
		for _, d := range directive.NewIndex(pkg.Fset, pkg.Syntax).All() {
			if !known[d.Name] {
				findings = append(findings, newFinding(pkg.Fset, d.Pos, "directive",
					fmt.Sprintf("unknown directive //softlora:%s: no analyzer reads it", d.Name), nil))
			}
		}
	}
	return findings
}

// runAnalyzers drives the suite over pkgs (already in dependency order):
// the whole-load call graph is built once, then each analyzer runs per
// package, and every pass of one analyzer shares that analyzer's map of
// solved offenses, so a package's offenses are recorded before any
// dependee runs.
func runAnalyzers(analyzers []*analysis.Analyzer, pkgs []*load.Package) []finding {
	cgPkgs := make([]*callgraph.Package, len(pkgs))
	for i, pkg := range pkgs {
		cgPkgs[i] = &callgraph.Package{Fset: pkg.Fset, Files: pkg.Syntax, Pkg: pkg.Types, Info: pkg.TypesInfo}
	}
	graph := callgraph.Build(cgPkgs)
	solved := make([]map[string]*callgraph.Offense, len(analyzers))
	for i := range solved {
		solved[i] = make(map[string]*callgraph.Offense)
	}

	var findings []finding
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			pass := &analysis.Pass{
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				TypesInfo: pkg.TypesInfo,
				CallGraph: graph,
				Solved:    solved[i],
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, newFinding(pkg.Fset, d.Pos, name, d.Message, d.Chain))
			}
			a.Run(pass)
		}
	}
	return findings
}

// sortFindings orders findings by position and drops exact duplicates.
func sortFindings(findings []finding) []finding {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	// A package analyzed both plain and as a test variant repeats its
	// regular files; drop the exact duplicates that produces.
	dedup := findings[:0]
	var prev finding
	for i, f := range findings {
		if i > 0 && f.File == prev.File && f.Line == prev.Line && f.Col == prev.Col &&
			f.Analyzer == prev.Analyzer && f.Message == prev.Message {
			continue
		}
		dedup = append(dedup, f)
		prev = f
	}
	return dedup
}
