package analysis

// poolhandoff generalizes the PR 5 span race: a value obtained from a
// sync.Pool (or a pooled span trace from a Recorder Start)
// is OWNED until it is handed to another goroutine via a channel send
// or returned to the pool via Put. After the handoff the receiver may
// already be mutating or recycling it, so any further use on the
// sending side is a data race waiting for load — exactly the
// tr.EndSpan-after-send bug the monitor shipped and later fixed by
// moving the EndSpan before the select.
//
// The analysis is a forward dataflow over the function's CFG: each
// tracked value is owned/handed per path, sends inside select clauses
// only poison the clause's branch (the default branch still owns the
// value), and any read of a may-be-handed value is reported.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolHandoff is the use-after-handoff analyzer.
var PoolHandoff = &Analyzer{
	Name:     "poolhandoff",
	Doc:      "pooled values and span traces must not be used after a channel send or Pool.Put hands them off",
	Severity: SeverityError,
	Run:      runPoolHandoff,
}

const (
	phOwned uint8 = 1 << iota
	phHanded
)

func runPoolHandoff(pass *Pass) {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		funcBodies(file, func(body *ast.BlockStmt, _ ast.Node) {
			poolHandoffBody(pass, body)
		})
	}
}

func poolHandoffBody(pass *Pass, body *ast.BlockStmt) {
	// Cheap pre-pass: anything pooled born here at all?
	tracked := false
	shallowWalkBody(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && pooledIntro(pass, as) != nil {
			tracked = true
		}
		return !tracked
	})
	if !tracked {
		return
	}

	c := NewCFG(body)
	fl := &Flow{
		Transfer: func(n ast.Node, f Facts) {
			shallowWalk(n, func(sub ast.Node) bool {
				switch sub := sub.(type) {
				case *ast.AssignStmt:
					if obj := pooledIntro(pass, sub); obj != nil {
						f[obj] = phOwned
					}
				case *ast.SendStmt:
					for obj, v := range f {
						if mentionsObj(pass.Info, sub.Value, obj.(types.Object)) {
							f[obj] = handoffStep(v)
						}
					}
				case *ast.CallExpr:
					if recv, name, ok := methodCall(sub); ok && name == "Put" &&
						typeFromPkg(pass.TypeOf(recv), "sync", "Pool") {
						for _, a := range sub.Args {
							for obj, v := range f {
								if mentionsObj(pass.Info, a, obj.(types.Object)) {
									f[obj] = handoffStep(v)
								}
							}
						}
					}
				}
				return true
			})
		},
	}
	in := fl.Forward(c)

	reported := map[token.Pos]bool{}
	fl.Visit(c, in, func(n ast.Node, f Facts) {
		for obj, v := range f {
			if v&phHanded == 0 {
				continue
			}
			o := obj.(types.Object)
			for _, id := range readsOf(pass, n, o) {
				if !reported[id.Pos()] {
					reported[id.Pos()] = true
					pass.Reportf(id.Pos(), "%s may already be handed off via channel send/Pool.Put on this path; the receiver can recycle it concurrently", id.Name)
				}
			}
		}
	})
}

// handoffStep maps each ownership state through a handoff.
func handoffStep(v uint8) uint8 {
	out := v & phHanded
	if v&phOwned != 0 {
		out |= phHanded
	}
	return out
}

// pooledIntro recognizes an assignment that births a tracked value:
//
//	x := pool.Get().(*T)   x := pool.Get()
//	tr := recorder.Start(name, stage)
//
// and returns the object bound to x.
func pooledIntro(pass *Pass, as *ast.AssignStmt) types.Object {
	if len(as.Rhs) != 1 || len(as.Lhs) == 0 {
		return nil
	}
	rhs := as.Rhs[0]
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ta.X
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	recv, name, ok := methodCall(call)
	if !ok {
		return nil
	}
	pooled := name == "Get" && typeFromPkg(pass.TypeOf(recv), "sync", "Pool")
	span := name == "Start" && typeNamed(pass.TypeOf(recv), "Recorder")
	if !pooled && !span {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := objOf(pass.Info, id); obj != nil {
		return obj
	}
	return nil
}

// readsOf returns identifiers in n's shallow subtree that READ obj —
// excluding write-only positions (assignment LHS), so re-introducing
// a recycled variable is not itself a use-after-handoff.
func readsOf(pass *Pass, n ast.Node, obj types.Object) []*ast.Ident {
	writes := map[*ast.Ident]bool{}
	shallowWalk(n, func(sub ast.Node) bool {
		if as, ok := sub.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					writes[id] = true
				}
			}
		}
		return true
	})
	var out []*ast.Ident
	shallowWalk(n, func(sub ast.Node) bool {
		if id, ok := sub.(*ast.Ident); ok && !writes[id] && objOf(pass.Info, id) == obj {
			out = append(out, id)
		}
		return true
	})
	return out
}
