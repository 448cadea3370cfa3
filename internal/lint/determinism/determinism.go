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
// ("a → b → c: c calls time.Now"). Per-function findings are exported as
// object facts (CallsWallClock, DrawsGlobalRand, RangesOverMap) that the
// driver serializes per package in dependency order, so the propagation
// stays modular. An escape hatch at any hop — on the primitive site or
// on an intermediate call — cuts the chain there.
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
	Name: "determinism",
	Doc:  "flag wall-clock, global-rand and map-iteration nondeterminism in deterministic (verdict/serialization) code, transitively through the call graph",
	Run:  run,
	FactTypes: []analysis.Fact{
		new(CallsWallClock), new(DrawsGlobalRand), new(RangesOverMap),
	},
	Directives: []string{"deterministic", EscapeHatch},
}

// EscapeHatch silences one diagnostic when placed on or above the line.
const EscapeHatch = "nondeterministic-ok"

// CallsWallClock marks a function that (transitively) reads the wall
// clock. Chain is the call path below the function, offender last.
type CallsWallClock struct {
	Detail string
	Chain  []string
}

// AFact marks the type as a serializable analyzer fact.
func (*CallsWallClock) AFact() {}

// DrawsGlobalRand marks a function that (transitively) draws from the
// process-global math/rand generator.
type DrawsGlobalRand struct {
	Detail string
	Chain  []string
}

// AFact marks the type as a serializable analyzer fact.
func (*DrawsGlobalRand) AFact() {}

// RangesOverMap marks a function that (transitively) ranges over a map.
type RangesOverMap struct {
	Detail string
	Chain  []string
}

// AFact marks the type as a serializable analyzer fact.
func (*RangesOverMap) AFact() {}

// Offense kinds, used to pick the fact type.
const (
	kindWallClock = "wallclock"
	kindRand      = "rand"
	kindMapRange  = "maprange"
)

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

func run(pass *analysis.Pass) (any, error) {
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
			scanBody(pass.Fset, pass.TypesInfo, ix, fn.Body, func(pos token.Pos, kind, classic string) bool {
				pass.Reportf(pos, "%s", classic)
				return true // keep scanning: report every direct site
			})
		}
	}

	if pass.CallGraph == nil {
		return nil, nil
	}
	propagate(pass, ix, inScope)
	return nil, nil
}

// propagate runs the interprocedural half: fact export for every
// function of the package, and call-edge chain reporting for scoped
// functions.
func propagate(pass *analysis.Pass, ix *directive.Index, inScope func(*ast.FuncDecl) bool) {
	nodes := packageNodes(pass)
	rule := &callgraph.Rule{
		Graph: pass.CallGraph,
		Direct: func(n *callgraph.Node) *callgraph.Offense {
			var off *callgraph.Offense
			if n.Decl.Body == nil {
				return nil
			}
			scanBody(n.Fset, n.Info, ix, n.Decl.Body, func(pos token.Pos, kind, classic string) bool {
				off = &callgraph.Offense{Kind: kind, Detail: detailFor(kind, classic)}
				return false // first offense is the fact
			})
			return off
		},
		// External: the nondeterministic primitives are always *direct*
		// calls into time / math/rand, caught by scanBody in whichever
		// loaded function makes them; an unloaded callee body cannot be
		// modeled and is assumed clean (lint runs on ./..., so in
		// practice every project package is loaded).
		External: nil,
		Imported: func(n *callgraph.Node) *callgraph.Offense {
			return importFact(pass, n.Func)
		},
		EdgeOK: func(e *callgraph.Edge) bool { return ix.OKAt(e.Pos, EscapeHatch) },
	}
	sol := rule.Solve(nodes)

	// Export one fact per offending function of this package.
	for _, n := range nodes {
		off := sol.Offense(n)
		if off == nil || pass.ExportObjectFact == nil {
			continue
		}
		switch off.Kind {
		case kindWallClock:
			pass.ExportObjectFact(n.Func, &CallsWallClock{Detail: off.Detail, Chain: off.Chain})
		case kindRand:
			pass.ExportObjectFact(n.Func, &DrawsGlobalRand{Detail: off.Detail, Chain: off.Chain})
		case kindMapRange:
			pass.ExportObjectFact(n.Func, &RangesOverMap{Detail: off.Detail, Chain: off.Chain})
		}
	}

	// Report scoped functions whose un-hatched call edges reach an
	// offense. Direct violations in the scoped body itself were already
	// reported by the classic check, so only callee offenses are raised
	// here.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !inScope(fn) {
				continue
			}
			tfn, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			n := pass.CallGraph.Node(tfn)
			if n == nil {
				continue
			}
			root := callgraph.DisplayName(tfn)
			for _, e := range n.Out {
				if e.InPanic || ix.OKAt(e.Pos, EscapeHatch) {
					continue
				}
				sub := sol.Lookup(e.Callee)
				if sub == nil {
					continue
				}
				callee := callgraph.DisplayName(e.Callee.Func)
				chain := append([]string{root, callee}, sub.Chain...)
				pass.ReportChain(e.Pos, chain,
					"deterministic code reaches nondeterminism: %s", sub.Format(root, callee))
			}
		}
	}
}

// importFact maps a dependency function's exported fact, if any, back to
// an offense.
func importFact(pass *analysis.Pass, fn *types.Func) *callgraph.Offense {
	if pass.ImportObjectFact == nil {
		return nil
	}
	var wc CallsWallClock
	if pass.ImportObjectFact(fn, &wc) {
		return &callgraph.Offense{Kind: kindWallClock, Detail: wc.Detail, Chain: wc.Chain}
	}
	var gr DrawsGlobalRand
	if pass.ImportObjectFact(fn, &gr) {
		return &callgraph.Offense{Kind: kindRand, Detail: gr.Detail, Chain: gr.Chain}
	}
	var rm RangesOverMap
	if pass.ImportObjectFact(fn, &rm) {
		return &callgraph.Offense{Kind: kindMapRange, Detail: rm.Detail, Chain: rm.Chain}
	}
	return nil
}

// packageNodes returns the call-graph nodes of this pass's declared
// functions, in deterministic (key) order courtesy of Graph.Nodes.
func packageNodes(pass *analysis.Pass) []*callgraph.Node {
	want := make(map[*callgraph.Node]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			tfn, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if n := pass.CallGraph.Node(tfn); n != nil {
				want[n] = true
			}
		}
	}
	var nodes []*callgraph.Node
	for _, n := range pass.CallGraph.Nodes() {
		if want[n] {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// detailFor compresses a classic diagnostic into the chain-detail form
// ("calls time.Now").
func detailFor(kind, classic string) string {
	switch kind {
	case kindMapRange:
		return "ranges over a map"
	default:
		// classic messages open with "call to X in deterministic code:
		// ..."; the detail is "calls X".
		msg := strings.TrimPrefix(classic, "call to ")
		if i := strings.Index(msg, " in deterministic code"); i >= 0 {
			msg = msg[:i]
		}
		msg = strings.TrimPrefix(msg, "global ")
		return "calls " + msg
	}
}

// scanBody walks one function body for direct nondeterminism, invoking
// visit for each un-hatched violation (kind + the classic diagnostic
// text). visit returns false to stop the scan.
func scanBody(fset *token.FileSet, info *types.Info, ix *directive.Index, body *ast.BlockStmt, visit func(pos token.Pos, kind, classic string) bool) {
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
					if !visit(n.Pos(), kindWallClock, "call to time."+obj.Name()+" in deterministic code: commits must be pure functions of their inputs") {
						stop = true
					}
				}
			case "math/rand", "math/rand/v2":
				if globalRand[obj.Name()] && !ix.OKAt(n.Pos(), EscapeHatch) {
					if !visit(n.Pos(), kindRand, "call to global "+obj.Pkg().Name()+"."+obj.Name()+" in deterministic code: use an explicitly seeded generator") {
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
				if !visit(n.Pos(), kindMapRange, "range over map in deterministic code: iteration order is nondeterministic (sorted-ID encoding is the rule)") {
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
