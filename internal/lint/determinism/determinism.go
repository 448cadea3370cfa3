// Package determinism implements the softlora-lint analyzer enforcing the
// repo's reproducibility contract: verdict-commit and serialization code
// must be a pure function of its inputs. Bit-identical verdicts and
// database bytes across worker counts, float lanes and delivery schedules
// (the `make determinism` gates) cannot survive wall-clock reads, global
// random state, or map iteration order leaking into committed results.
//
// Scope: every function of a package that carries a
// //softlora:deterministic package directive (internal/core and
// internal/netserver), plus any individual function annotated
// //softlora:deterministic elsewhere. The package directive does not
// reach _test.go files — test code reads clocks legitimately — so in a
// test-variant load only explicitly annotated test functions are
// checked.
//
// Flagged inside scoped functions:
//   - time.Now / time.Since / time.Until — wall-clock reads
//   - math/rand and math/rand/v2 package-level draws (the process-global
//     generator); explicitly seeded *rand.Rand values are fine
//   - range over a map — iteration order is randomized per run
//
// The check is interprocedural: a scoped function calling — through any
// number of un-annotated helpers, across package boundaries — a function
// that commits one of the violations above is flagged at its own call
// edge, with the offending chain spelled out
// ("a → b → c: c calls time.Now"). Each package's solved offenses are
// recorded in the analyzer's map shared across the run (see
// analysis.Pass.Propagate), filled package by package in dependency order.
// An escape hatch at any hop — on the primitive site or on an
// intermediate call — cuts the chain there.
//
// A site that is deliberately order- or clock-insensitive (a map range
// that fills another map or feeds a sorting step, a retry-backoff clock
// that never touches verdicts) is silenced with
// //softlora:nondeterministic-ok <why> on the line or the line above.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"softlora/internal/lint/analysis"
	"softlora/internal/lint/callgraph"
	"softlora/internal/lint/directive"
)

// Analyzer is the determinism contract check.
var Analyzer = &analysis.Analyzer{
	Name:       "determinism",
	Doc:        "flag wall-clock, global-rand and map-iteration nondeterminism in deterministic (verdict/serialization) code, transitively through the call graph",
	Run:        run,
	Directives: []string{"deterministic", EscapeHatch},
}

// EscapeHatch silences one diagnostic when placed on or above the line.
const EscapeHatch = "nondeterministic-ok"

// globalRand is the set of math/rand (and v2) package-level functions that
// draw from the shared process-global generator.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Read": true, "Seed": true,
}

var wallClock = map[string]bool{"Now": true, "Since": true, "Until": true}

func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

func run(pass *analysis.Pass) {
	ix := directive.NewIndex(pass.Fset, pass.Files)
	pkgScoped := ix.PackageHasNonTest("deterministic")
	inScope := func(fn *ast.FuncDecl) bool {
		if directive.FuncHas(fn, "deterministic") {
			return true
		}
		return pkgScoped && !isTestFile(pass.Fset, fn.Pos())
	}

	// Classic intra-function check: direct violations inside scoped
	// functions report at the primitive site.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !inScope(fn) {
				continue
			}
			scanBody(pass.TypesInfo, ix, fn.Body, func(pos token.Pos, classic, _ string) bool {
				pass.Reportf(pos, "%s", classic)
				return true // keep scanning: report every direct site
			})
		}
	}

	// Interprocedural half: scoped functions whose call edges reach an
	// offense, in this package or a dependency. The primitive calls into
	// time and math/rand are caught by scanBody in whichever loaded
	// function makes them, so there is no External model: an unloaded
	// callee body is assumed clean (lint runs on ./..., so in practice
	// every project package is loaded).
	pass.Propagate(&callgraph.Rule{
		Direct: func(n *callgraph.Node) *callgraph.Offense {
			var off *callgraph.Offense
			if n.Decl.Body == nil {
				return nil
			}
			scanBody(n.Info, ix, n.Decl.Body, func(_ token.Pos, _, detail string) bool {
				off = &callgraph.Offense{Detail: detail}
				return false // the first offense is the function's
			})
			return off
		},
		EdgeOK: func(e *callgraph.Edge) bool { return ix.OKAt(e.Pos, EscapeHatch) },
	}, inScope, "deterministic code reaches nondeterminism")
}

// scanBody walks one function body for direct nondeterminism, invoking
// visit for each un-hatched violation with the classic diagnostic text
// and the chain-detail form ("calls time.Now"). visit returns false to
// stop the scan.
func scanBody(info *types.Info, ix *directive.Index, body *ast.BlockStmt, visit func(pos token.Pos, classic, detail string) bool) {
	stop := false
	ast.Inspect(body, func(n ast.Node) bool {
		if stop {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			obj := calleeFunc(info, n)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if wallClock[obj.Name()] && !ix.OKAt(n.Pos(), EscapeHatch) {
					if !visit(n.Pos(), "call to time."+obj.Name()+" in deterministic code: commits must be pure functions of their inputs", "calls time."+obj.Name()) {
						stop = true
					}
				}
			case "math/rand", "math/rand/v2":
				if globalRand[obj.Name()] && !ix.OKAt(n.Pos(), EscapeHatch) {
					if !visit(n.Pos(), "call to global "+obj.Pkg().Name()+"."+obj.Name()+" in deterministic code: use an explicitly seeded generator", "calls "+obj.Pkg().Name()+"."+obj.Name()) {
						stop = true
					}
				}
			}
		case *ast.RangeStmt:
			t := info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap && !ix.OKAt(n.Pos(), EscapeHatch) {
				if !visit(n.Pos(), "range over map in deterministic code: iteration order is nondeterministic (sorted-ID encoding is the rule)", "ranges over a map") {
					stop = true
				}
			}
		}
		return !stop
	})
}

// calleeFunc resolves a call's target to a package-level *types.Func (nil
// for builtins, method values through interfaces, and local closures).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil // a method (e.g. on a seeded *rand.Rand), not a package function
	}
	return fn
}
