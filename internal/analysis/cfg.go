package analysis

// cfg.go — an intraprocedural control-flow graph over ast.Stmt, the
// substrate for the lifecycle analyzers (poolhandoff, spanbalance,
// walorder). The PR 4 analyzers are per-expression pattern checks; the
// invariants the engine's hot paths actually break — "this span is
// used after the channel send that handed it to a worker", "this
// atomic publish can run before its WAL append" — are path properties,
// visible only with real branch/loop structure.
//
// The graph is deliberately small: basic blocks of statements, edges
// labeled with the branch condition they test (so dataflow transfer
// functions can learn from `if e.ckpt != nil`), loops with back edges,
// switch/select fan-out, and return/panic edges into a single Exit
// block. Function literals are NOT inlined — each body is its own
// graph, built on demand — and defer bodies are recorded as plain
// nodes (analyzers that care about defers scan them separately,
// because defers run at every exit, not where they appear).

import (
	"go/ast"
	"go/token"
)

// CFG is the control-flow graph of one function body. Entry is the
// first block executed; every return, terminating call (panic,
// os.Exit, log.Fatal*) and fall-off-the-end path edges into Exit,
// which holds no nodes.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block // all blocks, creation order; may include unreachable ones
}

// Block is one basic block: nodes that execute in order with no
// branching between them, then zero or more successor edges.
type Block struct {
	Index int
	Nodes []ast.Node // statements and branch-condition expressions, in execution order
	Succs []Edge
	Preds []*Block
}

// Edge is one control transfer. When the transfer is the outcome of a
// two-way branch, Cond carries the tested expression and Taken its
// value along this edge — walorder uses this to learn `e.ckpt == nil`
// on the branch that skips the WAL. Multi-way transfers (switch cases,
// select clauses, range continuation) leave Cond nil.
type Edge struct {
	From, To *Block
	Cond     ast.Expr
	Taken    bool
}

// loopCtx is one enclosing breakable/continuable construct.
type loopCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select (not continuable)
}

type cfgBuilder struct {
	cfg        *CFG
	cur        *Block // nil after a terminator until the next block starts
	loops      []loopCtx
	labels     map[string]*Block // goto targets
	gotos      map[string][]*Block
	fallTarget *Block // next case block, inside a switch clause body
	pendLabel  string // label naming the next loop/switch/select
}

// NewCFG builds the graph for one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*Block{},
		gotos:  map[string][]*Block{},
	}
	b.cfg.Exit = b.newBlock() // Index 0 by construction; no nodes
	b.cfg.Entry = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.jump(b.cur, b.cfg.Exit)
	}
	// Unresolved gotos (label never defined — ill-formed code that the
	// type checker rejects anyway) fall through to Exit.
	for _, blocks := range b.gotos {
		for _, from := range blocks {
			b.jump(from, b.cfg.Exit)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, taken bool) {
	from.Succs = append(from.Succs, Edge{From: from, To: to, Cond: cond, Taken: taken})
	to.Preds = append(to.Preds, from)
}

func (b *cfgBuilder) jump(from, to *Block) { b.edge(from, to, nil, false) }

// block returns the current block, materializing an unreachable one
// after a terminator so later statements still land in the graph.
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendLabel
	b.pendLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if callTerminates(s.X) {
			b.jump(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	case nil, *ast.EmptyStmt:
		// nothing
	default:
		// Assign, Decl, Send, IncDec, Go, Defer — straight-line nodes.
		b.add(s)
	}
}

// callTerminates reports whether the expression is a call that never
// returns: panic, os.Exit, log.Fatal*, runtime.Goexit. Detection is
// syntactic (shadowing these names would fool it), which matches the
// codebase's idiom and keeps the builder independent of type info.
func callTerminates(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fn.Sel.Name {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
	}
	return false
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.takeLabel() // labels on if are goto-only; the label block is already placed
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	then := b.newBlock()
	b.edge(cond, then, s.Cond, true)
	b.cur = then
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		els := b.newBlock()
		b.edge(cond, els, s.Cond, false)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	join := b.newBlock()
	if thenEnd != nil {
		b.jump(thenEnd, join)
	}
	if !hasElse {
		b.edge(cond, join, s.Cond, false)
	} else if elseEnd != nil {
		b.jump(elseEnd, join)
	}
	b.cur = join
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.jump(b.block(), head)

	body := b.newBlock()
	after := b.newBlock()
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
		b.edge(head, body, s.Cond, true)
		b.edge(head, after, s.Cond, false)
	} else {
		b.jump(head, body) // for {}: after is reachable only via break
	}

	continueTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		b.jump(post, head)
		continueTo = post
	}

	b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: continueTo})
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.jump(b.cur, continueTo)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	b.add(s.X) // the ranged expression is evaluated once, before the loop
	head := b.newBlock()
	b.jump(b.block(), head)
	// The RangeStmt node itself stands for the per-iteration key/value
	// binding; transfers that care can inspect s.Key/s.Value.
	head.Nodes = append(head.Nodes, s)

	body := b.newBlock()
	after := b.newBlock()
	b.jump(head, body)
	b.jump(head, after)

	b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: head})
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.jump(b.cur, head)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

// switchStmt handles both expression and type switches: init and the
// tag/assign land in the head block, each case clause gets its own
// block fanning out of the head, fallthrough edges chain clause to
// clause, and everything joins after.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.block()
	join := b.newBlock()

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.jump(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.jump(head, join)
	}

	b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
	savedFall := b.fallTarget
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fallTarget = nil
		if i+1 < len(clauses) {
			b.fallTarget = blocks[i+1]
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.jump(b.cur, join)
		}
	}
	b.fallTarget = savedFall
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = join
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.block()
	join := b.newBlock()

	b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.jump(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			// The comm statement (send or receive) executes only when
			// its clause is selected, so it belongs to the clause block,
			// not the head — poolhandoff depends on this placement.
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.jump(b.cur, join)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	// A select with no clauses blocks forever; join simply ends up
	// unreachable. No extra edge needed.
	b.cur = join
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			if label == "" || b.loops[i].label == label {
				b.jump(b.cur, b.loops[i].breakTo)
				b.cur = nil
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			if b.loops[i].continueTo != nil && (label == "" || b.loops[i].label == label) {
				b.jump(b.cur, b.loops[i].continueTo)
				b.cur = nil
				return
			}
		}
	case token.GOTO:
		if to, ok := b.labels[label]; ok {
			b.jump(b.cur, to)
		} else {
			b.gotos[label] = append(b.gotos[label], b.cur)
		}
		b.cur = nil
		return
	case token.FALLTHROUGH:
		if b.fallTarget != nil {
			b.jump(b.cur, b.fallTarget)
		}
		b.cur = nil
		return
	}
	// break/continue with no enclosing construct (ill-formed): sever.
	b.cur = nil
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	blk := b.newBlock()
	if b.cur != nil {
		b.jump(b.cur, blk)
	}
	b.cur = blk
	b.labels[s.Label.Name] = blk
	for _, from := range b.gotos[s.Label.Name] {
		b.jump(from, blk)
	}
	delete(b.gotos, s.Label.Name)
	b.pendLabel = s.Label.Name
	b.stmt(s.Stmt)
	b.pendLabel = ""
}

// reachable returns the blocks reachable from Entry in reverse
// postorder — the dataflow fixpoint's iteration order.
func (c *CFG) reachable() []*Block {
	seen := make([]bool, len(c.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, e := range b.Succs {
			if !seen[e.To.Index] {
				dfs(e.To)
			}
		}
		post = append(post, b)
	}
	dfs(c.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
