// Package analysis is the minimal analyzer framework softlora-lint is
// built on. It borrows the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — so the analyzers read like standard vet
// passes. The repo builds offline against the baked-in toolchain only, so
// the framework is pure standard library: packages are loaded by
// internal/lint/load from `go list -export` metadata and type-checked
// with go/types.
//
// Transitive analyzers carry offenses across packages through one map per
// analyzer (Pass.Solved), keyed by callgraph.Node.Key and shared by every
// pass of the run. softlora-lint and analysistest run packages in
// dependency order, so when package q imports p, Propagate has already
// recorded every offending p function before q's pass looks it up.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"softlora/internal/lint/callgraph"
)

// An Analyzer is one static check: a name, a contract description, and a
// Run function invoked once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the contract the analyzer enforces, shown by -list.
	Doc string
	// Run performs the check on one package, reporting findings through
	// pass.Report.
	Run func(*Pass)
	// Directives are the //softlora: names the analyzer reads: its
	// scoping annotations and its escape hatch. The driver reports any
	// directive that no analyzer of the suite declares.
	Directives []string
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Chain, when non-empty, is the interprocedural call chain behind
	// the finding: display names from the reporting function down to the
	// offender. Machine output (-json) carries it structurally; the text
	// format already embeds it in Message.
	Chain []string
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// CallGraph is the whole-load call graph.
	CallGraph *callgraph.Graph

	// Solved is the analyzer's map of solved offenses, keyed by
	// callgraph.Node.Key. Every pass of one analyzer gets the same map,
	// so Propagate on a package reads what the passes on its dependencies
	// recorded.
	Solved map[string]*callgraph.Offense
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportChain reports a diagnostic carrying an interprocedural chain.
func (p *Pass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Chain: chain})
}

// Propagate is the interprocedural half of a transitive analyzer. It
// points rule.Solved at p.Solved and solves rule over the package's
// declared functions, recording their offenses there for dependees. Then
// it reports every un-hatched call edge from a function inScope to an
// offending callee, at the call site, as
// "message: root → callee → … → offender: offender detail" with the
// chain attached. Direct offenses in a scoped body are the analyzer's own
// to report.
func (p *Pass) Propagate(rule *callgraph.Rule, inScope func(*ast.FuncDecl) bool, message string) {
	rule.Solved = p.Solved
	rule.Solve(p.packageNodes())
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !inScope(fn) {
				continue
			}
			tfn, _ := p.TypesInfo.Defs[fn.Name].(*types.Func)
			n := p.CallGraph.Node(tfn)
			if n == nil {
				continue
			}
			root := callgraph.DisplayName(tfn)
			for _, e := range n.Out {
				if e.InPanic || (rule.EdgeOK != nil && rule.EdgeOK(e)) {
					continue
				}
				sub := rule.Lookup(e.Callee)
				if sub == nil {
					continue
				}
				callee := callgraph.DisplayName(e.Callee.Func)
				chain := append([]string{root, callee}, sub.Chain...)
				p.ReportChain(e.Pos, chain, "%s: %s", message, sub.Format(root, callee))
			}
		}
	}
}

// packageNodes returns the call-graph nodes of this pass's declared
// functions, in deterministic (key) order courtesy of Graph.Nodes.
func (p *Pass) packageNodes() []*callgraph.Node {
	want := make(map[*callgraph.Node]bool)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			tfn, _ := p.TypesInfo.Defs[fn.Name].(*types.Func)
			if n := p.CallGraph.Node(tfn); n != nil {
				want[n] = true
			}
		}
	}
	var nodes []*callgraph.Node
	for _, n := range p.CallGraph.Nodes() {
		if want[n] {
			nodes = append(nodes, n)
		}
	}
	return nodes
}
