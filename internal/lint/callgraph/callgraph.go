// Package callgraph builds a type-informed, whole-load call graph for the
// softlora-lint analyzers — the backbone of interprocedural contract
// propagation (transitive determinism/allocfree checking).
//
// Resolution is CHA-style (class-hierarchy analysis), deliberately
// over-approximate but never silently incomplete:
//
//   - static calls — package functions, methods on concrete receivers —
//     resolve to exactly one callee;
//   - interface method calls resolve to the implements-set: every method
//     of that name on every loaded concrete type whose method set
//     satisfies the interface;
//   - calls through function values (variables, fields, parameters,
//     results) resolve to every loaded function or method whose signature
//     matches the call site's.
//
// Nodes and edges are deterministically ordered (by stable object key,
// then by call position), so diagnostics and propagation chains are
// byte-identical across runs.
//
// The loader (internal/lint/load) type-checks each package from source
// but resolves its imports from compiler export data, so one function is
// described by distinct go/types objects depending on which package is
// looking. The graph therefore keys every function by a stable string
// (ObjectKey) and compares types structurally by normalized string
// (signature matching, implements-sets) rather than by go/types identity
// — the two universes meet at the key.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Node is one function or method in the graph.
type Node struct {
	// Key is the function's stable identity (see ObjectKey).
	Key string
	// Func is a representative types object for the function. When
	// several loaded packages see the function through different
	// importers, this is the instance from the package that declares it
	// (the one with syntax), if any.
	Func *types.Func
	// Decl is the function's declaration when its package is part of the
	// load; nil for functions known only through export data (standard
	// library, packages outside the lint run).
	Decl *ast.FuncDecl
	// Fset positions Decl (nil when Decl is nil).
	Fset *token.FileSet
	// Info is the type info of the package that declared Decl.
	Info *types.Info
	// Out are the node's call edges, ordered by call position then
	// callee key.
	Out []*Edge
}

// An Edge is one call site resolved to one callee.
type Edge struct {
	Caller *Node
	Callee *Node
	// Pos is the call expression's position in the caller.
	Pos token.Pos
	// Dynamic marks edges resolved by over-approximation (interface
	// implements-set or signature match) rather than direct reference.
	Dynamic bool
	// InPanic marks call sites inside a panic(...) argument. Panicking
	// paths are cold by definition, so offense propagation skips these
	// edges (a contract violated only while crashing is not a violation).
	InPanic bool
}

// A Graph is the call graph of one load.
type Graph struct {
	nodes map[string]*Node
	order []*Node
}

// Node returns the graph node for fn, or nil.
func (g *Graph) Node(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[ObjectKey(fn)]
}

// NodeByKey returns the node with the given stable key, or nil.
func (g *Graph) NodeByKey(key string) *Node { return g.nodes[key] }

// Nodes returns every node in deterministic order (sorted by key).
func (g *Graph) Nodes() []*Node { return g.order }

// A Package is one loaded package the graph is built from — the same
// shape internal/lint/analysis.Pass carries.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// normPath strips the " [p.test]" suffix go list gives test variants, so
// a function seen through a test variant and through the plain build
// share one identity.
func normPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// ObjectKey returns a stable cross-universe identity for a function or
// method: package path, receiver type name, and function name, joined
// unambiguously. Generic instantiations key as their origin declaration.
func ObjectKey(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = normPath(fn.Pkg().Path())
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	return path + "\x00" + recv + "\x00" + fn.Name()
}

// recvTypeName names a receiver's defined type ("Plan" for *Plan,
// "DechirpScratch" for DechirpScratch[K]).
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return t.String()
	}
	return t.String()
}

// DisplayName renders a function for diagnostics and chains:
// "pkg.Func", "pkg.Recv.Method", or plain "Func" for the main package.
func DisplayName(fn *types.Func) string {
	fn = fn.Origin()
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = recvTypeName(sig.Recv().Type()) + "." + name
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// qual renders package paths fully (normalized for test variants) so type
// strings compare structurally across importer universes.
func qual(p *types.Package) string {
	if p == nil {
		return ""
	}
	return normPath(p.Path())
}

// sigKey is a signature's comparison string with the receiver stripped
// and parameters/results unnamed — the shape a function value of that
// type has. Names must not participate: a declaration's "func(x int)"
// and a call site's "func(int)" are the same signature.
func sigKey(sig *types.Signature) string {
	return types.TypeString(
		types.NewSignatureType(nil, nil, nil, unnamedTuple(sig.Params()), unnamedTuple(sig.Results()), sig.Variadic()),
		qual,
	)
}

// unnamedTuple rebuilds a parameter or result tuple with the names
// dropped, keeping only the types.
func unnamedTuple(t *types.Tuple) *types.Tuple {
	if t == nil || t.Len() == 0 {
		return t
	}
	vars := make([]*types.Var, t.Len())
	for i := 0; i < t.Len(); i++ {
		v := t.At(i)
		vars[i] = types.NewVar(token.NoPos, v.Pkg(), "", v.Type())
	}
	return types.NewTuple(vars...)
}

// methodKey is one method's name plus sans-receiver signature string —
// the unit of structural interface satisfaction.
func methodKey(name string, sig *types.Signature) string {
	return name + "\x00" + sigKey(sig)
}

// Build constructs the call graph of the given packages. Every function
// declared in them becomes a node with syntax; callees outside the load
// become leaf nodes without syntax.
func Build(pkgs []*Package) *Graph {
	g := &Graph{nodes: make(map[string]*Node)}
	b := &builder{g: g}

	// Pass 1: nodes for every declared function, and the concrete-type
	// universe for implements-sets.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := ObjectKey(fn)
				if n := g.nodes[key]; n != nil {
					// A test variant re-declares its plain build's
					// functions; keep the first instance seen.
					continue
				}
				g.nodes[key] = &Node{Key: key, Func: fn, Decl: fd, Fset: p.Fset, Info: p.Info}
			}
		}
		b.collectTypes(p)
	}
	b.indexMethods()

	// Pass 2: edges. Deterministic package order is the caller's
	// responsibility (load returns dependency order); edges are sorted
	// per node afterwards regardless.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := g.nodes[ObjectKey(fn)]
				if n.Decl != fd {
					continue // test-variant duplicate: edges already built
				}
				b.edges(p, n, fd.Body)
			}
		}
	}

	for _, n := range g.nodes {
		sort.Slice(n.Out, func(i, j int) bool {
			a, c := n.Out[i], n.Out[j]
			if a.Pos != c.Pos {
				return a.Pos < c.Pos
			}
			return a.Callee.Key < c.Callee.Key
		})
		g.order = append(g.order, n)
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].Key < g.order[j].Key })
	return g
}

// builder accumulates the concrete-type universe during construction.
type builder struct {
	g *Graph
	// named is every defined (non-interface) type of the load, keyed to
	// dedupe test-variant re-declarations.
	named map[string]*types.Named
	// bySig indexes declared functions by sans-receiver signature string
	// for function-value resolution.
	bySig map[string][]*Node
	// byMethod indexes declared methods by methodKey for implements-set
	// resolution.
	byMethod map[string][]*Node
	// inPanic is set while resolving a call site inside a panic argument
	// (edges() drives it; addEdge stamps it onto the edge).
	inPanic bool
}

func (b *builder) collectTypes(p *Package) {
	if b.named == nil {
		b.named = make(map[string]*types.Named)
	}
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		key := qual(p.Pkg) + "\x00" + name
		if _, dup := b.named[key]; !dup {
			b.named[key] = named
		}
	}
}

// indexMethods builds the signature and method indexes over the nodes
// declared in pass 1.
func (b *builder) indexMethods() {
	b.bySig = make(map[string][]*Node)
	b.byMethod = make(map[string][]*Node)
	for _, n := range b.g.nodes {
		sig, ok := n.Func.Type().(*types.Signature)
		if !ok {
			continue
		}
		b.bySig[sigKey(sig)] = append(b.bySig[sigKey(sig)], n)
		if sig.Recv() != nil {
			b.byMethod[methodKey(n.Func.Name(), sig)] = append(b.byMethod[methodKey(n.Func.Name(), sig)], n)
		}
	}
	for _, m := range b.bySig {
		sort.Slice(m, func(i, j int) bool { return m[i].Key < m[j].Key })
	}
	for _, m := range b.byMethod {
		sort.Slice(m, func(i, j int) bool { return m[i].Key < m[j].Key })
	}
}

// leaf returns (creating if needed) the syntax-less node for a function
// outside the load.
func (b *builder) leaf(fn *types.Func) *Node {
	key := ObjectKey(fn)
	if n := b.g.nodes[key]; n != nil {
		return n
	}
	n := &Node{Key: key, Func: fn}
	b.g.nodes[key] = n
	return n
}

// edges walks one function body resolving every call expression.
// Function-literal bodies are attributed to the enclosing declaration:
// for contract propagation a closure's operations belong to the function
// that creates (and overwhelmingly, runs) it. Call sites inside panic
// arguments are resolved too, but marked InPanic.
func (b *builder) edges(p *Package, caller *Node, body *ast.BlockStmt) {
	// Collect the source ranges of panic(...) arguments first, so nested
	// call edges can be marked.
	var panicArgs [][2]token.Pos
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if p.Info.Uses[id] == types.Universe.Lookup("panic") && len(call.Args) > 0 {
				panicArgs = append(panicArgs, [2]token.Pos{call.Args[0].Pos(), call.Args[len(call.Args)-1].End()})
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicArgs {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		b.inPanic = inPanic(call.Pos())
		b.resolve(p, caller, call)
		return true
	})
	b.inPanic = false
}

func (b *builder) addEdge(caller, callee *Node, pos token.Pos, dynamic bool) {
	caller.Out = append(caller.Out, &Edge{Caller: caller, Callee: callee, Pos: pos, Dynamic: dynamic, InPanic: b.inPanic})
}

func (b *builder) resolve(p *Package, caller *Node, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Conversions are not calls.
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		return
	}

	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.FuncLit:
		return // body attributed to the caller; no edge
	case *ast.IndexExpr:
		// Generic instantiation f[T](...): resolve through the index
		// operand when it names a function.
		if inner, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			id = inner
		}
	}

	if id != nil {
		switch obj := p.Info.Uses[id].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			sig, _ := obj.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				b.resolveInterfaceCall(caller, call, obj, sig)
				return
			}
			b.resolveStatic(caller, call, obj)
			return
		}
		// A function-typed variable, field or parameter: fall through to
		// signature over-approximation.
	}

	// Anything else with a function type is a call through a value:
	// over-approximate by signature.
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for _, callee := range b.bySig[sigKey(sig)] {
		b.addEdge(caller, callee, call.Pos(), true)
	}
}

func (b *builder) resolveStatic(caller *Node, call *ast.CallExpr, obj *types.Func) {
	key := ObjectKey(obj)
	callee := b.g.nodes[key]
	if callee == nil {
		callee = b.leaf(obj)
	}
	b.addEdge(caller, callee, call.Pos(), false)
}

// resolveInterfaceCall resolves i.M() to the implements-set: every loaded
// concrete type whose method set structurally satisfies the interface,
// via that type's M. Interface satisfaction is checked by method-key
// subset so it holds across importer universes.
func (b *builder) resolveInterfaceCall(caller *Node, call *ast.CallExpr, obj *types.Func, sig *types.Signature) {
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	want := make(map[string]bool, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		want[methodKey(m.Name(), m.Type().(*types.Signature))] = true
	}

	var namedKeys []string
	for k := range b.named {
		namedKeys = append(namedKeys, k)
	}
	sort.Strings(namedKeys)
	for _, k := range namedKeys {
		named := b.named[k]
		if !satisfies(named, want) {
			continue
		}
		// The implementing method: same name, same sans-receiver
		// signature as the interface method, on this type.
		mk := methodKey(obj.Name(), obj.Type().(*types.Signature))
		for _, callee := range b.byMethod[mk] {
			if recvNamedKey(callee.Func) == k {
				b.addEdge(caller, callee, call.Pos(), true)
			}
		}
	}
}

// recvNamedKey returns the named-type universe key of a method's
// receiver.
func recvNamedKey(fn *types.Func) string {
	sig, ok := fn.Origin().Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return qual(named.Obj().Pkg()) + "\x00" + named.Obj().Name()
}

// satisfies reports whether the method set of T or *T structurally covers
// every wanted interface method.
func satisfies(named *types.Named, want map[string]bool) bool {
	have := make(map[string]bool)
	for _, t := range []types.Type{named, types.NewPointer(named)} {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			fn, ok := m.(*types.Func)
			if !ok {
				continue
			}
			have[methodKey(fn.Name(), fn.Type().(*types.Signature))] = true
		}
	}
	for k := range want {
		if !have[k] {
			return false
		}
	}
	return true
}
