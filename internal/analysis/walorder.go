package analysis

// walorder enforces the PR 8 swap-protocol invariant: in a function
// that appends to the checkpoint WAL, the state publication — an
// atomic Store that makes the new state visible to readers — must be
// dominated by the Append. If a path can publish first, a crash
// between the two leaves readers serving state the WAL never recorded,
// which is exactly the fingerprint-drift bug the swap protocol exists
// to prevent.
//
// The analysis is edge-sensitive dataflow over the CFG with one
// function-wide WAL state: PENDING at entry, APPENDED after any
// Store.Append or Store.AppendBatch call (or a call to a same-package
// function that makes one, such as a shared WAL-logging helper), and
// ABSENT on the branch where a nil-check proved there is no checkpoint
// store attached (the nil-ckpt deployment legitimately skips the WAL).
// An atomic publish is reported when PENDING is still a possible state
// — i.e. some path reaches it with neither an append nor nil-evidence.
// Functions with no append are ignored: plain pool installs (restore-time installGen, fleet-level
// epoch bumps) delegate WAL writes elsewhere.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WALOrder is the publish-after-WAL analyzer.
var WALOrder = &Analyzer{
	Name:     "walorder",
	Doc:      "atomic state publication must be dominated by the checkpoint WAL append on every path",
	Severity: SeverityError,
	Run:      runWALOrder,
}

const (
	woPending uint8 = 1 << iota
	woAppended
	woAbsent
)

// walKey is the single fact key for the function-wide WAL state.
type walKeyType struct{}

var walKey walKeyType

func runWALOrder(pass *Pass) {
	isAppend := walAppends(pass)
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		funcBodies(file, func(body *ast.BlockStmt, _ ast.Node) {
			walOrderBody(pass, isAppend, body)
		})
	}
}

// walAppends returns the append matcher for the package: store.Append
// on a checkpoint Store, or a call to a package function whose own body
// makes one (a WAL-logging helper appends at its call site).
func walAppends(pass *Pass) func(*ast.CallExpr) bool {
	writers := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			shallowWalkBody(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isStoreAppend(pass, call) {
					writers[pass.Info.Defs[fd.Name]] = true
					return false
				}
				return true
			})
		}
	}
	return func(call *ast.CallExpr) bool {
		if isStoreAppend(pass, call) {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			id, ok = sel.Sel, true
		}
		return ok && writers[pass.Info.Uses[id]]
	}
}

func walOrderBody(pass *Pass, isWALAppend func(*ast.CallExpr) bool, body *ast.BlockStmt) {
	// Only functions that write the WAL themselves carry the ordering
	// obligation.
	appends := false
	shallowWalkBody(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWALAppend(call) {
			appends = true
		}
		return !appends
	})
	if !appends {
		return
	}

	c := NewCFG(body)
	fl := &Flow{
		Entry: Facts{walKey: woPending},
		Transfer: func(n ast.Node, f Facts) {
			has := false
			shallowWalk(n, func(sub ast.Node) bool {
				if call, ok := sub.(*ast.CallExpr); ok && isWALAppend(call) {
					has = true
				}
				return !has
			})
			if has {
				f[walKey] = woAppended
			}
		},
		Edge: func(e Edge, f Facts) {
			if nilCheckSkipsWAL(pass, e) {
				v := f[walKey]
				out := v &^ woPending
				if v&woPending != 0 {
					out |= woAbsent
				}
				f[walKey] = out
			}
		},
	}
	in := fl.Forward(c)

	reported := map[token.Pos]bool{}
	fl.Visit(c, in, func(n ast.Node, f Facts) {
		if f[walKey]&woPending == 0 {
			return
		}
		shallowWalk(n, func(sub ast.Node) bool {
			call, ok := sub.(*ast.CallExpr)
			if !ok || !isAtomicPublish(pass, call) {
				return true
			}
			if !reported[call.Pos()] {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(), "atomic publish may run before the WAL append on some path; append to the checkpoint store first")
			}
			return true
		})
	})
}

// isStoreAppend matches store.Append(kind, payload) and the group
// commit store.AppendBatch(entries) on a checkpoint Store value.
func isStoreAppend(pass *Pass, call *ast.CallExpr) bool {
	recv, name, ok := methodCall(call)
	return ok && (name == "Append" || name == "AppendBatch") && typeNamed(pass.TypeOf(recv), "Store")
}

// isAtomicPublish matches .Store(...) on any sync/atomic type —
// atomic.Pointer[T].Store, atomic.Value.Store, atomic.Uint64.Store —
// the moment new state becomes visible to concurrent readers.
func isAtomicPublish(pass *Pass, call *ast.CallExpr) bool {
	recv, name, ok := methodCall(call)
	if !ok || name != "Store" {
		return false
	}
	n := namedOf(pass.TypeOf(recv))
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// nilCheckSkipsWAL recognizes the branch edge that proves no
// checkpoint store is attached: the false edge of `ckpt != nil` or the
// true edge of `ckpt == nil`, where ckpt is a *Store-typed expression.
func nilCheckSkipsWAL(pass *Pass, e Edge) bool {
	bin, ok := e.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	var other ast.Expr
	switch {
	case isNilIdent(bin.X):
		other = bin.Y
	case isNilIdent(bin.Y):
		other = bin.X
	default:
		return false
	}
	if !typeNamed(pass.TypeOf(other), "Store") {
		return false
	}
	switch bin.Op {
	case token.NEQ:
		return !e.Taken
	case token.EQL:
		return e.Taken
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
