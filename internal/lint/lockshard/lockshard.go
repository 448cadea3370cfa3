// Package lockshard implements the softlora-lint analyzer enforcing the
// sharded-state locking discipline of internal/netserver and the
// no-mutex-copies rule everywhere.
//
// Guarded fields: a struct field annotated
//
//	//softlora:guarded-by <mutexField>
//
// (on the field's doc or trailing comment, where <mutexField> is a
// sync.Mutex or sync.RWMutex field of the same struct) may only be
// accessed in functions that, earlier in their body, called
// Lock/RLock on the same base expression's mutex — e.g. sh.mu.Lock()
// before sh.devices. The check is lexical and intra-procedural by design:
// it matches the repo's idiom of locking and accessing a shard inside one
// function, and it is precisely the idiom that keeps shard reasoning
// local. A function whose caller holds the lock is annotated
// //softlora:locked; a constructor touching a not-yet-shared struct is
// silenced per-site with //softlora:lock-ok <why>.
//
// Mutex copies: copying a value whose type (directly or through nested
// structs/arrays/embedding) contains a sync.Mutex or sync.RWMutex copies
// the lock state — a classic shard-aliasing bug. Flagged: assignments and
// declarations copying such a value, non-pointer function parameters and
// results of such types, and range statements whose value variable copies
// one. Composite-literal construction of a fresh value is fine.
package lockshard

import (
	"go/ast"
	"go/types"

	"softlora/internal/lint/analysis"
	"softlora/internal/lint/directive"
)

// Analyzer is the lock/shard discipline check.
var Analyzer = &analysis.Analyzer{
	Name:       "lockshard",
	Doc:        "flag guarded-field access outside the owning lock's scope and by-value copies of mutex-bearing structs",
	Run:        run,
	Directives: []string{"guarded-by", "locked", EscapeHatch},
}

// EscapeHatch silences one diagnostic when placed on or above the line.
const EscapeHatch = "lock-ok"

func run(pass *analysis.Pass) {
	ix := directive.NewIndex(pass.Fset, pass.Files)
	guarded := collectGuarded(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGuardedAccess(pass, ix, fn, guarded)
			checkMutexCopies(pass, ix, fn)
		}
	}
}

// collectGuarded maps each annotated field object to the name of the
// mutex field that guards it.
func collectGuarded(pass *analysis.Pass) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				d, ok := directive.FromComments(field.Doc, "guarded-by")
				if !ok {
					d, ok = directive.FromComments(field.Comment, "guarded-by")
				}
				if !ok || d.Args == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guarded[obj] = d.Args
					}
				}
			}
			return true
		})
	}
	return guarded
}

// checkGuardedAccess verifies every guarded-field selector in fn is
// preceded by a Lock/RLock on the same base's mutex.
func checkGuardedAccess(pass *analysis.Pass, ix *directive.Index, fn *ast.FuncDecl, guarded map[types.Object]string) {
	if len(guarded) == 0 || directive.FuncHas(fn, "locked") {
		return
	}
	info := pass.TypesInfo

	// lockCalls: positions of <base>.<mutex>.Lock/RLock calls, keyed by the
	// printed base expression and mutex name.
	type lockSite struct {
		base, mutex string
	}
	locks := make(map[lockSite][]ast.Node)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		mu, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || !isMutexType(info.TypeOf(mu)) {
			return true
		}
		locks[lockSite{types.ExprString(mu.X), mu.Sel.Name}] = append(locks[lockSite{types.ExprString(mu.X), mu.Sel.Name}], n)
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := info.Uses[sel.Sel]
		mutexName, isGuarded := guarded[obj]
		if !isGuarded {
			return true
		}
		if ix.OKAt(sel.Pos(), EscapeHatch) {
			return true
		}
		base := types.ExprString(sel.X)
		for _, lock := range locks[lockSite{base, mutexName}] {
			if lock.Pos() < sel.Pos() {
				return true // locked earlier in this function
			}
		}
		pass.Reportf(sel.Pos(), "access to %s.%s outside %s.%s lock scope: take the shard lock first, annotate the function //softlora:locked if the caller holds it", base, sel.Sel.Name, base, mutexName)
		return true
	})
}

// checkMutexCopies flags by-value copies of mutex-bearing types in fn's
// signature and body.
func checkMutexCopies(pass *analysis.Pass, ix *directive.Index, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	report := func(pos ast.Node, what string, t types.Type) {
		if ix.OKAt(pos.Pos(), EscapeHatch) {
			return
		}
		pass.Reportf(pos.Pos(), "%s copies %s, which contains a sync mutex: pass a pointer", what, t)
	}

	if fn.Type.Params != nil {
		for _, p := range fn.Type.Params.List {
			if t := info.TypeOf(p.Type); containsMutex(t) {
				report(p.Type, "parameter", t)
			}
		}
	}
	if fn.Type.Results != nil {
		for _, r := range fn.Type.Results.List {
			if t := info.TypeOf(r.Type); containsMutex(t) {
				report(r.Type, "result", t)
			}
		}
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					continue // blank assignment performs no copy
				}
				if copiesMutexValue(info, rhs) {
					report(rhs, "assignment", info.TypeOf(rhs))
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				if copiesMutexValue(info, v) {
					report(v, "declaration", info.TypeOf(v))
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			if t := info.TypeOf(n.Value); containsMutex(t) {
				report(n.Value, "range value", t)
			}
		}
		return true
	})
}

// copiesMutexValue reports whether evaluating e copies an existing
// mutex-bearing value (reading a variable, field, element or
// dereference). Fresh composite literals and function calls construct new
// values and are fine.
func copiesMutexValue(info *types.Info, e ast.Expr) bool {
	if !containsMutex(info.TypeOf(e)) {
		return false
	}
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// containsMutex reports whether t holds a sync.Mutex/RWMutex by value,
// directly or nested in structs and arrays.
func containsMutex(t types.Type) bool {
	return containsMutexDepth(t, 0)
}

func containsMutexDepth(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return false
	}
	if isMutexType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutexDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return containsMutexDepth(u.Elem(), depth+1)
	}
	return false
}
