// Package lint is softlora's static-contract suite: three analyzers that
// machine-check, at the source level, the invariants the runtime test
// gates (`make determinism`, the zero-alloc regression tests, the race
// suite) would otherwise only catch after a violation ships. They run as
// `make lint` (cmd/softlora-lint -tests ./...) in CI; the repo must stay
// clean.
//
// # The analyzers
//
//   - determinism — verdict-commit and serialization code must be a pure
//     function of its inputs: no time.Now/Since/Until, no process-global
//     math/rand draws, no map-range whose order can leak into committed
//     state. Scoped to packages carrying //softlora:deterministic
//     (internal/core, internal/netserver) and to individually annotated
//     functions, and enforced transitively: a deterministic function may
//     not reach nondeterminism through any chain of calls. Escape hatch:
//     //softlora:nondeterministic-ok <why>.
//
//   - allocfree — functions annotated //softlora:allocfree (the
//     steady-state per-frame kernels: Plan.TransformInPlace and Plan.run,
//     the dechirp magnitude fills, netserver's verdict path from
//     checkDevice through fnv32a, shardFor and core.CheckRecord) must not
//     allocate at all, anywhere in their call tree: no make/new, no
//     composite literals on the heap, no closures, no un-presized append,
//     no string/[]byte conversions or non-constant concatenation, no
//     interface boxing, no goroutine starts, and no calls into stdlib
//     packages modeled as allocating (fmt, errors, sort, strings,
//     hash/..., ...). Map writes and panic arguments are exempt (cold
//     paths by definition). Escape hatch: //softlora:allocfree-ok <why>.
//
//   - lockshard — struct fields annotated //softlora:guarded-by <mu> may
//     only be touched after a Lock/RLock of the same base expression's
//     mutex earlier in the function (//softlora:locked marks functions
//     whose caller holds the lock); and mutex-bearing values must never
//     be copied (parameters, results, assignments, range values). Escape
//     hatch: //softlora:lock-ok <why>.
//
// Each analyzer declares the directive names it reads in its Directives,
// and softlora-lint reports any //softlora: directive no analyzer of the
// suite declares: a misspelled //softlora:alocfree would otherwise leave
// its function silently unchecked.
//
// # Interprocedural propagation
//
// determinism and allocfree are transitive: the contract holds for
// everything an annotated root can reach, not just its own body. Two
// pieces make that work.
//
// internal/lint/callgraph builds one CHA-style call graph over the whole
// load: static calls resolve exactly, interface method calls resolve to
// every loaded concrete type satisfying the interface, calls through
// function values resolve to every loaded function of matching signature.
// Call sites inside panic arguments are marked and never propagated
// through — a contract violated only while crashing is not a violation.
// Within one package, callgraph.Rule/Solve computes the transitive
// offense fixpoint.
//
// Across packages, each analyzer keeps one map of solved offenses, keyed
// by callgraph.Node.Key and shared by all its passes of the run
// (analysis.Pass.Solved). softlora-lint runs packages in dependency order,
// so when package q imports p, the analyzer's verdict on every p function
// ("transitively allocates", "reaches time.Now") is already in the map
// before q asks for it. Solving stays per package, in that order, because
// which chain a finding reports depends on the order offenses are found.
// Callees with no syntax anywhere in the load (the standard library) go
// through a small explicit model instead of being silently trusted.
//
// A transitive finding is reported at the root's offending call edge with
// the full chain, e.g.
//
//	allocfree function reaches an allocation:
//	netserver.NetworkServer.checkDevice → core.CheckRecord →
//	core.BiasRecord.Fold: core.BiasRecord.Fold boxes int into any
//
// and -json output carries the chain structurally. An escape hatch on any
// call site along the chain cuts propagation at that hop.
//
// # Adding an analyzer
//
// Create internal/lint/<name> exporting a *analysis.Analyzer, give it an
// analysistest suite with known-bad fixtures under
// internal/lint/<name>/testdata/src/..., and append it to Analyzers in
// lint.go. Scope new contracts with //softlora: directives (package
// directive in doc.go for package-wide contracts, function annotation for
// opt-in checks) so other packages inherit the check by annotating, not
// by editing the analyzer; list every directive name it reads in the
// Analyzer's Directives. Package-wide directives scope through
// directive.Index.PackageHasNonTest so test files never inherit them;
// test code opts in per function.
//
// For a transitive contract, additionally build a callgraph.Rule whose
// Direct hook scans one body for the first primitive offense and whose
// EdgeOK hook honors the escape hatch, model any relevant stdlib behavior
// in its External hook, and hand it to Pass.Propagate with the scope
// predicate and the finding's message: Propagate solves the package,
// records its offenses for dependees, and reports the chains. The
// determinism and allocfree analyzers are two worked examples, in
// ascending order of direct-offense complexity.
//
// # Why not golang.org/x/tools/go/analysis
//
// The repo builds offline against the baked-in toolchain, so the suite
// runs on a small standard-library framework (internal/lint/analysis,
// internal/lint/load, internal/lint/callgraph, internal/lint/analysistest)
// that borrows the x/tools API shapes — Analyzer/Pass/Diagnostic,
// testdata/src fixture layout, `// want` expectations. It keeps no
// x/tools-style facts layer: softlora-lint and analysistest hold the
// whole load's call graph in one process, so one in-memory map per analyzer carries
// offenses between packages.
package lint
