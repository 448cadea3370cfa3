// Package poolcheck implements the softlora-lint analyzer enforcing
// bufpool ownership discipline (see internal/bufpool's package doc): a
// buffer obtained from bufpool.Get or bufpool.GetUninit is the caller's
// until it is either handed back with bufpool.Put or handed off — stored
// into a longer-lived structure (a Capture), returned, or passed to
// another function that assumes ownership. A buffer that can fall out of
// scope on some path without either is a silent pool leak: correctness
// survives (the GC collects it) but the steady-state zero-alloc contract
// the pool exists for does not.
//
// Per function, for every `buf := bufpool.Get(n)` / GetUninit:
//
//   - a `defer bufpool.Put(buf)` anywhere makes every path safe;
//   - any hand-off (return, store into a field/element/composite literal,
//     alias assignment, or passing buf to a function other than Put)
//     transfers ownership and ends the analysis for that buffer;
//   - otherwise every return statement reachable after the Get must be
//     preceded by a bufpool.Put(buf) on that path — a lexical
//     path walk over if/else, switch, select and loops, conservative in
//     the caller's favor (a Put only inside a loop body does not count as
//     a Put on the fall-through path).
//
// A site with out-of-band ownership (a test helper, a buffer parked in a
// package-level cache) is silenced with //softlora:bufpool-ok <why> on
// the Get line or the line above.
package poolcheck

import (
	"go/ast"
	"go/types"

	"softlora/internal/lint/analysis"
	"softlora/internal/lint/directive"
)

// Analyzer is the bufpool ownership check.
var Analyzer = &analysis.Analyzer{
	Name:       "poolcheck",
	Doc:        "flag bufpool.Get/GetUninit buffers that can leave the function without a matching Put or ownership hand-off",
	Run:        run,
	Directives: []string{EscapeHatch},
}

// EscapeHatch silences one diagnostic when placed on or above the Get.
const EscapeHatch = "bufpool-ok"

// PoolPath is the package whose Get/GetUninit/Put calls are tracked.
const PoolPath = "softlora/internal/bufpool"

func run(pass *analysis.Pass) (any, error) {
	ix := directive.NewIndex(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, ix, fn)
		}
	}
	return nil, nil
}

// poolCall classifies a call into the bufpool package; name is "" for
// calls elsewhere.
func poolCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != PoolPath {
		return ""
	}
	return obj.Name()
}

func checkFunc(pass *analysis.Pass, ix *directive.Index, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	// Pass 1: find every `v := bufpool.Get*(...)` with an identifier LHS.
	type tracked struct {
		obj  types.Object
		get  *ast.CallExpr
		name string // Get or GetUninit
	}
	var bufs []*tracked
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		name := poolCall(info, call)
		if name != "Get" && name != "GetUninit" {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || ix.OKAt(call.Pos(), EscapeHatch) {
			return true
		}
		bufs = append(bufs, &tracked{obj: obj, get: call, name: name})
		return true
	})

	for _, b := range bufs {
		analyzeBuffer(pass, fn, b.obj, b.get, b.name)
	}
}

// analyzeBuffer classifies every use of obj and, when needed, runs the
// path walk.
func analyzeBuffer(pass *analysis.Pass, fn *ast.FuncDecl, obj types.Object, get *ast.CallExpr, getName string) {
	info := pass.TypesInfo
	var (
		deferredPut bool
		transferred bool
		putCalls    = make(map[*ast.CallExpr]bool)
	)

	// usesObj reports whether e is an identifier for obj.
	usesObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
	}

	var walkUses func(n ast.Node, inDefer bool)
	walkUses = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walkUses(n.Call, true)
				return false
			case *ast.CallExpr:
				name := poolCall(info, n)
				if name == "Put" && len(n.Args) == 1 && usesObj(n.Args[0]) {
					if inDefer {
						deferredPut = true
					} else {
						putCalls[n] = true
					}
					return false
				}
				// obj (or a subslice of it) passed to any other non-builtin
				// call — including methods such as capture.Release wrappers —
				// transfers ownership. Builtins (len, cap, copy, ...) only
				// read the value.
				if tv, ok := info.Types[n.Fun]; !ok || !tv.IsBuiltin() {
					for _, arg := range n.Args {
						if aliases(info, arg, obj) {
							transferred = true
						}
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if aliases(info, r, obj) {
						transferred = true
					}
				}
			case *ast.AssignStmt:
				// obj flowing into an assignment whose target is not obj
				// itself (an alias, a field store, a map/slice element)
				// transfers ownership; `buf = buf[:n]`-style self-updates
				// and element reads (`x := buf[0]`) do not.
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && usesObj(n.Lhs[i]) {
						continue
					}
					if aliases(info, rhs, obj) {
						transferred = true
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if mentions(info, el, obj) {
						transferred = true
					}
				}
			case *ast.GoStmt:
				if mentions(info, n.Call, obj) {
					transferred = true
				}
			case *ast.FuncLit:
				// A closure capturing the buffer owns it as far as this
				// analysis can see.
				if mentions(info, n.Body, obj) {
					transferred = true
				}
				return false
			}
			return true
		})
	}
	walkUses(fn.Body, false)

	if deferredPut || transferred {
		return
	}
	if len(putCalls) == 0 {
		pass.Reportf(get.Pos(), "bufpool.%s result %q is never Put back or handed off: pool leak", getName, obj.Name())
		return
	}
	// Path walk: report returns reachable after the Get with no Put yet,
	// and a fall-off-the-end path that never Put.
	w := &pathWalker{pass: pass, info: info, obj: obj, get: get, puts: putCalls}
	if st := w.walk(fn.Body.List, state{}); st.live && !st.terminated {
		pass.Reportf(fn.Body.Rbrace, "function can end without bufpool.Put(%s) on this path: pool leak", obj.Name())
	}
}

// aliases reports whether e both references obj and evaluates to
// something that can still reach the buffer's storage (a slice, pointer,
// struct, interface...) — reading a single element or a length produces a
// basic value and keeps ownership with the function.
func aliases(info *types.Info, e ast.Expr, obj types.Object) bool {
	if !mentions(info, e, obj) {
		return false
	}
	t := info.TypeOf(e)
	if t == nil {
		return true
	}
	b, isBasic := t.Underlying().(*types.Basic)
	return !isBasic || b.Kind() == types.UntypedNil
}

// mentions reports whether the subtree references obj.
func mentions(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
		}
		return !found
	})
	return found
}

// state is the abstract per-path state of the walk.
type state struct {
	live       bool // Get executed, no Put yet
	terminated bool // path ends (return) — nothing merges back
}

type pathWalker struct {
	pass *analysis.Pass
	info *types.Info
	obj  types.Object
	get  *ast.CallExpr
	puts map[*ast.CallExpr]bool
}

// contains reports whether the subtree holds the node for which pred is
// true, skipping FuncLit bodies (closure code does not execute here).
func (w *pathWalker) contains(n ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if pred(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (w *pathWalker) hasGet(n ast.Node) bool {
	return w.contains(n, func(x ast.Node) bool { return x == ast.Node(w.get) })
}

func (w *pathWalker) hasPut(n ast.Node) bool {
	return w.contains(n, func(x ast.Node) bool {
		c, ok := x.(*ast.CallExpr)
		return ok && w.puts[c]
	})
}

// walk interprets a statement list, reporting returns on live paths.
func (w *pathWalker) walk(list []ast.Stmt, st state) state {
	for _, s := range list {
		if st.terminated {
			return st
		}
		st = w.stmt(s, st)
	}
	return st
}

func (w *pathWalker) stmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		if st.live {
			w.pass.Reportf(s.Pos(), "return without bufpool.Put(%s) on this path: pool leak (Put, defer the Put, or hand the buffer off)", w.obj.Name())
		}
		st.terminated = true
		return st
	case *ast.BlockStmt:
		return w.walk(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		thenSt := w.walk(s.Body.List, st)
		elseSt := st
		if s.Else != nil {
			elseSt = w.stmt(s.Else, st)
		}
		return merge(thenSt, elseSt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			body = s.Body
		}
		out := st // fall-through when no case matches
		for _, cc := range body.List {
			var stmts []ast.Stmt
			switch cc := cc.(type) {
			case *ast.CaseClause:
				stmts = cc.Body
			case *ast.CommClause:
				stmts = cc.Body
			}
			out = merge(out, w.walk(stmts, st))
		}
		return out
	case *ast.ForStmt:
		// The body may run zero times: the fall-through state keeps st
		// (a Put only inside the loop is not a Put on every path), but
		// returns inside the body are still checked.
		w.walk(s.Body.List, st)
		return st
	case *ast.RangeStmt:
		w.walk(s.Body.List, st)
		return st
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	default:
		// Leaf statement: the Get arms the state, a Put disarms it.
		if w.hasGet(s) {
			st.live = true
		}
		if w.hasPut(s) {
			st.live = false
		}
		return st
	}
}

// merge joins two branch states: the buffer is live after the join if any
// continuing branch left it live.
func merge(a, b state) state {
	switch {
	case a.terminated && b.terminated:
		return state{terminated: true}
	case a.terminated:
		return b
	case b.terminated:
		return a
	default:
		return state{live: a.live || b.live}
	}
}
