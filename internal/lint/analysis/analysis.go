// Package analysis is the minimal analyzer framework softlora-lint is
// built on. It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic, object
// facts — so the analyzers read like standard vet passes and can migrate
// to the real framework wholesale if the x/tools dependency ever lands.
// The repo builds offline against the baked-in toolchain only, so the
// framework is pure standard library: packages are loaded by
// internal/lint/load from `go list -export` metadata and type-checked
// with go/types.
//
// Facts make the analyzers modular across packages, the way vet's
// unitchecker is: an analyzer running on package P may attach facts to
// P's objects (ExportObjectFact); when a dependee of P is analyzed later
// — the driver runs packages in dependency order — the same analyzer
// reads them back (ImportObjectFact) instead of re-deriving P. Between
// the export and the import the driver serializes each package's facts
// (see Store), so a fact type must round-trip through encoding/gob and
// carries no pointers into the type-checker.
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
	// pass.Report. The result value is unused by the driver (kept for
	// x/tools API symmetry).
	Run func(*Pass) (any, error)
	// FactTypes lists the fact types the analyzer exports and imports,
	// one zero-value pointer each (e.g. new(Allocates)). The driver
	// registers them with gob before the first package runs.
	FactTypes []Fact
	// Directives are the //softlora: names the analyzer reads: its
	// scoping annotations and its escape hatch. The driver reports any
	// directive that no analyzer of the suite declares.
	Directives []string
}

// A Fact is a serializable observation about a types.Object, exported by
// an analyzer run on the object's package and imported by later runs on
// dependees. Implementations must be gob-encodable pointer types.
type Fact interface {
	// AFact is a marker method (x/tools convention).
	AFact()
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
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// ForTest is the package under test when this is a test-variant load
	// ("" otherwise). Package-level directive scoping must not leak into
	// test files; analyzers consult this together with file names.
	ForTest string

	// CallGraph is the whole-load call graph (nil for drivers that do
	// not propagate, e.g. single-package tools).
	CallGraph *callgraph.Graph

	// ExportObjectFact associates a fact with obj, visible to later runs
	// of the same analyzer on dependee packages. Nil when the driver has
	// no fact store.
	ExportObjectFact func(obj types.Object, fact Fact)
	// ImportObjectFact copies the fact of the given concrete type
	// attached to obj into fact, reporting whether one was found. Nil
	// when the driver has no fact store.
	ImportObjectFact func(obj types.Object, fact Fact) bool
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportChain reports a diagnostic carrying an interprocedural chain.
func (p *Pass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Chain: chain})
}
