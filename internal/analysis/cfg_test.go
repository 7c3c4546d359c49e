package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildCFG parses a function body and builds its graph. Marker calls
// like A(), B() locate blocks in assertions.
func buildCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return NewCFG(fn.Body)
}

// markerBlock finds the block containing a marker call statement M().
func markerBlock(t *testing.T, c *CFG, name string) *Block {
	t.Helper()
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				return b
			}
		}
	}
	t.Fatalf("no block contains marker %s()", name)
	return nil
}

func hasEdge(from, to *Block) bool {
	for _, e := range from.Succs {
		if e.To == to {
			return true
		}
	}
	return false
}

func isReachable(c *CFG, b *Block) bool {
	for _, r := range c.reachable() {
		if r == b {
			return true
		}
	}
	return false
}

func TestCFGStructure(t *testing.T) {
	tests := []struct {
		name string
		body string
		// edges that must exist, as marker pairs; "exit" names c.Exit
		edges [][2]string
		// markers that must NOT be reachable from entry
		unreachable []string
	}{
		{
			name:  "if-else joins",
			body:  "if cond() {\n A()\n} else {\n B()\n}\nC()",
			edges: [][2]string{{"A", "C"}, {"B", "C"}, {"C", "exit"}},
		},
		{
			name:  "if without else falls to join",
			body:  "A()\nif cond() {\n B()\n}\nC()",
			edges: [][2]string{{"B", "C"}, {"C", "exit"}},
		},
		{
			name:        "return severs flow",
			body:        "A()\nreturn\nB()",
			edges:       [][2]string{{"A", "exit"}},
			unreachable: []string{"B"},
		},
		{
			name:        "panic terminates",
			body:        "A()\npanic(\"x\")\nB()",
			edges:       [][2]string{{"A", "exit"}},
			unreachable: []string{"B"},
		},
		{
			name:        "os.Exit terminates",
			body:        "A()\nos.Exit(1)\nB()",
			unreachable: []string{"B"},
		},
		{
			name:  "for loop back edge and break",
			body:  "for i := 0; i < n; i++ {\n A()\n if cond() {\n  break\n }\n B()\n}\nC()",
			edges: [][2]string{{"B", "C"}, {"C", "exit"}}, // break lands in A's block-successor chain
		},
		{
			name:        "forever loop after-block only via break",
			body:        "for {\n A()\n}\nB()",
			unreachable: []string{"B"},
		},
		{
			name:  "forever loop with break reaches after",
			body:  "for {\n A()\n if cond() {\n  break\n }\n}\nB()",
			edges: [][2]string{{"B", "exit"}},
		},
		{
			name:  "range loop",
			body:  "for _, v := range xs {\n A()\n _ = v\n}\nB()",
			edges: [][2]string{{"B", "exit"}},
		},
		{
			name:  "switch fans out and joins",
			body:  "switch tag() {\ncase 1:\n A()\ncase 2:\n B()\ndefault:\n C()\n}\nD()",
			edges: [][2]string{{"A", "D"}, {"B", "D"}, {"C", "D"}},
		},
		{
			name:  "switch fallthrough chains clauses",
			body:  "switch tag() {\ncase 1:\n A()\n fallthrough\ncase 2:\n B()\n}\nC()",
			edges: [][2]string{{"A", "B"}, {"B", "C"}},
		},
		{
			name:  "select clause bodies join",
			body:  "select {\ncase <-ch:\n A()\ncase ch2 <- v:\n B()\n}\nC()",
			edges: [][2]string{{"A", "C"}, {"B", "C"}},
		},
		{
			name:  "labeled continue targets outer loop",
			body:  "outer:\nfor i := 0; i < n; i++ {\n for j := 0; j < n; j++ {\n  if cond() {\n   continue outer\n  }\n  A()\n }\n}\nB()",
			edges: [][2]string{{"B", "exit"}},
		},
		{
			name:  "goto forward",
			body:  "A()\ngoto done\nB()\ndone:\nC()",
			edges: [][2]string{{"C", "exit"}},
			// B is unreachable but still lands between A's goto and the label
			unreachable: []string{"B"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := buildCFG(t, tt.body)
			if c.Exit.Index != 0 || len(c.Exit.Nodes) != 0 {
				t.Fatalf("exit block malformed: index=%d nodes=%d", c.Exit.Index, len(c.Exit.Nodes))
			}
			resolve := func(m string) *Block {
				if m == "exit" {
					return c.Exit
				}
				return markerBlock(t, c, m)
			}
			for _, e := range tt.edges {
				from, to := resolve(e[0]), resolve(e[1])
				// "edge" here means reachability without passing through
				// another marker — direct or via empty join blocks.
				if !pathAvoidingMarkers(from, to) {
					t.Errorf("no marker-free path %s -> %s", e[0], e[1])
				}
			}
			for _, m := range tt.unreachable {
				if isReachable(c, markerBlock(t, c, m)) {
					t.Errorf("marker %s() should be unreachable", m)
				}
			}
		})
	}
}

// pathAvoidingMarkers reports whether to is reachable from from's
// successors without executing another marker call on the way. Empty
// join/head blocks are transparent.
func pathAvoidingMarkers(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		if blockHasMarker(b) {
			return false
		}
		for _, e := range b.Succs {
			if walk(e.To) {
				return true
			}
		}
		return false
	}
	for _, e := range from.Succs {
		if walk(e.To) {
			return true
		}
	}
	return false
}

func blockHasMarker(b *Block) bool {
	for _, n := range b.Nodes {
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name != "cond" && id.Name != "tag" {
					return true
				}
			}
		}
	}
	return false
}

func TestCFGBranchEdgesCarryConditions(t *testing.T) {
	c := buildCFG(t, "if cond() {\n A()\n} else {\n B()\n}")
	a, bb := markerBlock(t, c, "A"), markerBlock(t, c, "B")
	var taken, notTaken bool
	for _, blk := range c.Blocks {
		for _, e := range blk.Succs {
			if e.Cond == nil {
				continue
			}
			if e.To == a {
				if !e.Taken {
					t.Errorf("edge to then-block should have Taken=true")
				}
				taken = true
			}
			if e.To == bb {
				if e.Taken {
					t.Errorf("edge to else-block should have Taken=false")
				}
				notTaken = true
			}
		}
	}
	if !taken || !notTaken {
		t.Fatalf("missing labeled branch edges: taken=%v notTaken=%v", taken, notTaken)
	}
}

// TestForwardJoin checks that the fixpoint ORs facts across paths:
// marker a() sets bit 1, b() sets bit 2; after an if-else executing
// one of each, both bits reach the join.
func TestForwardJoin(t *testing.T) {
	c := buildCFG(t, "if cond() {\n a()\n} else {\n b()\n}\nC()")
	const key = "k"
	fl := &Flow{
		Transfer: func(n ast.Node, f Facts) {
			switch markerName(n) {
			case "a":
				f[key] |= 1
			case "b":
				f[key] |= 2
			}
		},
	}
	in := fl.Forward(c)
	got := in[c.Exit][key]
	if got != 3 {
		t.Fatalf("exit facts = %b, want 11 (both paths joined)", got)
	}
	// And before C(), via Visit.
	var atC uint8
	fl.Visit(c, in, func(n ast.Node, f Facts) {
		if markerName(n) == "C" {
			atC = f[key]
		}
	})
	if atC != 3 {
		t.Fatalf("facts before C() = %b, want 11", atC)
	}
}

// TestForwardLoopFixpoint: a bit set inside a loop body must reach the
// loop head on the back edge and therefore the after-block even on the
// zero-iteration path join.
func TestForwardLoopFixpoint(t *testing.T) {
	c := buildCFG(t, "for i := 0; i < n; i++ {\n a()\n}\nC()")
	const key = "k"
	fl := &Flow{
		Transfer: func(n ast.Node, f Facts) {
			if markerName(n) == "a" {
				f[key] |= 1
			}
		},
	}
	in := fl.Forward(c)
	var atC uint8
	fl.Visit(c, in, func(n ast.Node, f Facts) {
		if markerName(n) == "C" {
			atC = f[key]
		}
	})
	// The loop may run zero times, so the bit is possible but the key
	// exists with the bit joined in from the back edge.
	if atC != 1 {
		t.Fatalf("facts before C() = %b, want 1 (loop body fact reaches after via back edge)", atC)
	}
}

// TestForwardEdgeSensitivity: the Edge hook sees branch conditions, so
// a nil-check can teach the false path a distinct fact.
func TestForwardEdgeSensitivity(t *testing.T) {
	c := buildCFG(t, "if ok {\n a()\n}\nC()")
	const key = "k"
	fl := &Flow{
		Transfer: func(n ast.Node, f Facts) {
			if markerName(n) == "a" {
				f[key] |= 1
			}
		},
		Edge: func(e Edge, f Facts) {
			id, isIdent := e.Cond.(*ast.Ident)
			if e.Cond != nil && isIdent && id.Name == "ok" && !e.Taken {
				f[key] |= 4 // "skipped the guard"
			}
		},
	}
	in := fl.Forward(c)
	var atC uint8
	fl.Visit(c, in, func(n ast.Node, f Facts) {
		if markerName(n) == "C" {
			atC = f[key]
		}
	})
	if atC != 5 {
		t.Fatalf("facts before C() = %b, want 101 (guarded bit on one path, skip bit on the other)", atC)
	}
}

func markerName(n ast.Node) string {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	return id.Name
}
