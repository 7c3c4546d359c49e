package analysis

// spanbalance checks that every trace opened with Recorder.Start is
// closed: a Finish must be reachable on all return and panic paths,
// and at most once. An unfinished trace pins its pooled spans forever
// (the recorder only recycles on Finish), so a missed error path is a
// slow span-pool leak; a double Finish returns spans to the pool
// twice, which is the PR 5 corruption class from the other direction.
//
// States per trace, propagated over the CFG: LIVE (started, not yet
// closed), FINISHED, ESCAPED (ownership left this function — passed
// to a call, sent on a channel, returned, stored — so balance is the
// receiver's responsibility). Traces finished inside a defer are
// balanced at every exit by construction and satisfy the check;
// traces captured by non-defer closures are skipped entirely rather
// than guessed at.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanBalance is the trace begin/finish balance analyzer.
var SpanBalance = &Analyzer{
	Name:     "spanbalance",
	Doc:      "every Recorder.Start trace must reach Finish on all paths, at most once",
	Severity: SeverityWarn,
	Run:      runSpanBalance,
}

const (
	sbLive uint8 = 1 << iota
	sbFinished
	sbEscaped
)

func runSpanBalance(pass *Pass) {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		funcBodies(file, func(body *ast.BlockStmt, _ ast.Node) {
			spanBalanceBody(pass, body)
		})
	}
}

func spanBalanceBody(pass *Pass, body *ast.BlockStmt) {
	// Traces born in this body, keyed by object, valued by Start pos.
	intros := map[types.Object]token.Pos{}
	shallowWalkBody(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			if obj := traceIntro(pass, as); obj != nil {
				intros[obj] = as.Pos()
			}
		}
		return true
	})
	if len(intros) == 0 {
		return
	}

	// Defers run at every exit: a trace finished (or handed to a
	// helper) inside one is balanced on all paths. Closure captures
	// outside defers make the trace's lifetime non-local; skip those.
	deferClosed := map[types.Object]bool{}
	for obj := range intros {
		shallowWalkBody(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if deferMentions(pass, n, obj) {
					deferClosed[obj] = true
				}
				return false
			case *ast.FuncLit:
				if mentionsObjDeep(pass.Info, n.Body, obj) {
					delete(intros, obj)
				}
				return false
			}
			return true
		})
	}
	if len(intros) == 0 {
		return
	}

	c := NewCFG(body)
	fl := &Flow{
		Transfer: func(n ast.Node, f Facts) {
			if as, ok := n.(*ast.AssignStmt); ok {
				if obj := traceIntro(pass, as); obj != nil {
					if _, tracked := intros[obj]; tracked {
						f[obj] = sbLive
					}
					return
				}
			}
			if _, ok := n.(*ast.DeferStmt); ok {
				return // defer bodies run at exit, not here
			}
			for obj := range intros {
				switch classifyUse(pass, n, obj) {
				case useFinish:
					f[obj] = finishStep(f[obj])
				case useEscape:
					if f[obj] != 0 {
						f[obj] = sbEscaped
					}
				}
			}
		},
	}
	in := fl.Forward(c)

	// Double finish: a Finish reached while FINISHED is already a
	// possible state means some path closes the trace twice.
	fl.Visit(c, in, func(n ast.Node, f Facts) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return
		}
		for obj := range intros {
			if classifyUse(pass, n, obj) == useFinish && f[obj]&sbFinished != 0 {
				pass.Reportf(n.Pos(), "trace %s may already be finished on this path; Finish must run at most once", obj.Name())
			}
		}
	})

	// Leak: LIVE still possible at function exit.
	exit := in[c.Exit]
	for obj, pos := range intros {
		if exit[obj]&sbLive != 0 && !deferClosed[obj] {
			pass.Reportf(pos, "trace %s started here is not finished on every path", obj.Name())
		}
	}
}

// finishStep maps each state through a Finish call.
func finishStep(v uint8) uint8 {
	out := v &^ sbLive
	if v&sbLive != 0 {
		out |= sbFinished
	}
	return out
}

type useKind int

const (
	useNone useKind = iota
	useFinish
	useEscape
)

// classifyUse inspects node n for uses of obj: a method call with obj
// as the receiver is a Finish (if named Finish) or neutral (EndSpan,
// Flag, SetVerdict keep the trace live); ANY other appearance — call
// argument, channel send, return value, composite literal, assignment
// source — transfers ownership out of this function.
func classifyUse(pass *Pass, n ast.Node, obj types.Object) useKind {
	// First pass: identifiers that are exactly the receiver of a
	// method call on obj, mapped to the method's name.
	recvs := map[*ast.Ident]string{}
	shallowWalk(n, func(sub ast.Node) bool {
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && objOf(pass.Info, id) == obj {
				recvs[id] = sel.Sel.Name
			}
		}
		return true
	})
	kind := useNone
	shallowWalk(n, func(sub ast.Node) bool {
		id, ok := sub.(*ast.Ident)
		if !ok || objOf(pass.Info, id) != obj {
			return true
		}
		if m, isRecv := recvs[id]; isRecv {
			if m == "Finish" && kind == useNone {
				kind = useFinish
			}
			return true
		}
		kind = useEscape // not a receiver position: ownership leaves
		return true
	})
	return kind
}

// traceIntro recognizes tr := recorder.Start(...) and returns tr's
// object.
func traceIntro(pass *Pass, as *ast.AssignStmt) types.Object {
	if len(as.Rhs) != 1 || len(as.Lhs) == 0 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	recv, name, ok := methodCall(call)
	if !ok || name != "Start" {
		return nil
	}
	if !typeNamed(pass.TypeOf(recv), "Recorder") {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return objOf(pass.Info, id)
}

// deferMentions reports whether the deferred call — its arguments or,
// for an immediately-invoked closure, its whole body — touches obj.
func deferMentions(pass *Pass, d *ast.DeferStmt, obj types.Object) bool {
	if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
		if mentionsObjDeep(pass.Info, fl.Body, obj) {
			return true
		}
	}
	for _, a := range d.Call.Args {
		if mentionsObjDeep(pass.Info, a, obj) {
			return true
		}
	}
	_, sel := d.Call.Fun.(*ast.SelectorExpr)
	if sel {
		return mentionsObjDeep(pass.Info, d.Call.Fun, obj)
	}
	return false
}

// mentionsObjDeep is mentionsObj without the function-literal cutoff.
func mentionsObjDeep(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && objOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
