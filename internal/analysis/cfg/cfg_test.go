package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// graph is a function body's Graph plus lookups by source text, so a test
// names a block by a statement or condition it holds.
type graph struct {
	t    *testing.T
	g    *Graph
	src  string
	fset *token.FileSet
}

func parse(t *testing.T, body string) *graph {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	return &graph{t: t, g: New(fn.Body), src: src, fset: fset}
}

func (g *graph) text(n ast.Node) string {
	return g.src[g.fset.Position(n.Pos()).Offset:g.fset.Position(n.End()).Offset]
}

// find returns the one block holding a node whose source is text.
func (g *graph) find(text string) *Block {
	g.t.Helper()
	var found *Block
	for _, b := range g.g.Blocks {
		for _, n := range b.Nodes {
			if g.text(n) == text {
				if found != nil && found != b {
					g.t.Fatalf("%q is in blocks %d and %d", text, found.Index, b.Index)
				}
				found = b
			}
		}
	}
	if found == nil {
		g.t.Fatalf("no block holds %q", text)
	}
	return found
}

// succs returns b's successors in edge order.
func succs(b *Block) []*Block {
	out := make([]*Block, len(b.Succs))
	for i, e := range b.Succs {
		out[i] = e.To
	}
	return out
}

// reaches reports whether a path leads from one block to another.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(*Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, e := range b.Succs {
			if walk(e.To) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// edgeTo returns the edge from b to to, failing when there is none.
func (g *graph) edgeTo(b, to *Block) Edge {
	g.t.Helper()
	for _, e := range b.Succs {
		if e.To == to {
			return e
		}
	}
	g.t.Fatalf("no edge from block %d to block %d", b.Index, to.Index)
	return Edge{}
}

// only asserts that b has exactly the successors want, in order.
func (g *graph) only(b *Block, want ...*Block) {
	g.t.Helper()
	got := succs(b)
	if len(got) != len(want) {
		g.t.Fatalf("block %d has %d successors, want %d", b.Index, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			g.t.Fatalf("block %d successor %d is block %d, want block %d", b.Index, i, got[i].Index, want[i].Index)
		}
	}
}

// condTrue returns the target of b's CondTrue edge.
func (g *graph) condTrue(b *Block) *Block {
	g.t.Helper()
	for _, e := range b.Succs {
		if e.Cond != nil && e.CondTrue {
			return e.To
		}
	}
	g.t.Fatalf("block %d has no CondTrue edge", b.Index)
	return nil
}

func TestNew(t *testing.T) {
	for _, c := range []struct {
		name, body string
		check      func(g *graph)
	}{
		{"err != nil edge", `
	err := open()
	if err != nil {
		fail()
		return
	}
	use()`, func(g *graph) {
			cond := g.find("err != nil")
			if cond != g.find("err := open()") {
				g.t.Error("the condition is not evaluated in the block that assigns err")
			}
			fail, use := g.find("fail()"), g.find("use()")
			if e := g.edgeTo(cond, fail); g.text(e.Cond) != "err != nil" || !e.CondTrue {
				g.t.Errorf("edge to the error path: cond %v, CondTrue %v; want err != nil, true", e.Cond, e.CondTrue)
			}
			if e := g.edgeTo(cond, use); g.text(e.Cond) != "err != nil" || e.CondTrue {
				g.t.Errorf("edge past the error path: cond %v, CondTrue %v; want err != nil, false", e.Cond, e.CondTrue)
			}
			g.only(fail, g.g.Exit)
			g.only(use, g.g.Exit)
		}},
		{"if-else polarity", `
	if err != nil {
		a()
	} else {
		b()
	}`, func(g *graph) {
			cond := g.find("err != nil")
			if !g.edgeTo(cond, g.find("a()")).CondTrue || g.edgeTo(cond, g.find("b()")).CondTrue {
				g.t.Error("then branch must be the CondTrue edge, else the CondTrue=false one")
			}
		}},
		{"labelled break and continue", `
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if c() {
				continue outer
			}
			if d() {
				break outer
			}
			e()
		}
	}
	z()`, func(g *graph) {
			g.only(g.condTrue(g.find("c()")), g.find("i++"))
			brk := g.condTrue(g.find("d()"))
			g.only(brk, g.find("z()"))
			// The inner loop's body falls through to its post.
			g.only(g.find("e()"), g.find("j++"))
		}},
		{"goto", `
	i := 0
loop:
	if i < 3 {
		i++
		goto loop
	}
	goto end
	skipped()
end:
	z()`, func(g *graph) {
			g.only(g.find("i++"), g.find("i < 3"))
			g.only(g.find("i := 0"), g.find("i < 3"))
			if reaches(g.g.Entry, g.find("skipped()")) {
				g.t.Error("statement after goto is reachable")
			}
			if !reaches(g.g.Entry, g.find("z()")) || !reaches(g.find("z()"), g.g.Exit) {
				g.t.Error("goto target is not on a path from Entry to Exit")
			}
		}},
		{"switch with fallthrough", `
	pre()
	switch x {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	default:
		c()
	}
	d()`, func(g *graph) {
			a, b, c, d := g.find("a()"), g.find("b()"), g.find("c()"), g.find("d()")
			// With a default there is no edge around the clauses.
			g.only(g.find("pre()"), a, b, c)
			g.only(a, b)
			g.only(b, d)
			g.only(c, d)
		}},
		{"switch without default", `
	pre()
	switch {
	case p():
		a()
	}
	d()`, func(g *graph) {
			g.only(g.find("pre()"), g.find("a()"), g.find("d()"))
		}},
		{"select", `
	pre()
	select {
	case v := <-ch:
		a(v)
	case ch2 <- 1:
		break
		b()
	default:
		c()
	}
	d()`, func(g *graph) {
			recv, send, def, d := g.find("v := <-ch"), g.find("ch2 <- 1"), g.find("c()"), g.find("d()")
			g.only(g.find("pre()"), recv, send, def)
			if recv != g.find("a(v)") {
				g.t.Error("a receive clause's comm and body are not one block")
			}
			g.only(recv, d)
			g.only(send, d) // break leaves the select
			g.only(def, d)
			if reaches(g.g.Entry, g.find("b()")) {
				g.t.Error("statement after break is reachable")
			}
		}},
		{"range header", `
	pre()
	for k, v := range m {
		if skip(k) {
			continue
		}
		use(k, v)
	}
	after()`, func(g *graph) {
			var head *Block
			for _, b := range g.g.Blocks {
				if len(b.Nodes) > 0 {
					if _, ok := b.Nodes[0].(*ast.RangeStmt); ok {
						head = b
					}
				}
			}
			if head == nil || len(head.Nodes) != 1 {
				g.t.Fatal("no block holds the range header alone")
			}
			g.only(g.find("pre()"), head)
			body := g.find("skip(k)")
			g.only(head, body, g.find("after()"))
			g.only(g.condTrue(body), head) // continue
			g.only(g.find("use(k, v)"), head)
		}},
		{"terminating calls", `
	if a() {
		panic("x")
	}
	if b() {
		os.Exit(1)
	}
	if c() {
		log.Fatal("y")
	}
	if e() {
		runtime.Goexit()
	}
	d()`, func(g *graph) {
			for _, s := range []string{`panic("x")`, `os.Exit(1)`, `log.Fatal("y")`, `runtime.Goexit()`} {
				if b := g.find(s); len(b.Succs) != 0 || reaches(b, g.g.Exit) {
					g.t.Errorf("%s reaches Exit", s)
				}
			}
			if !reaches(g.g.Entry, g.find("d()")) {
				g.t.Error("the normal path is cut")
			}
			g.only(g.find("d()"), g.g.Exit)
		}},
	} {
		t.Run(c.name, func(t *testing.T) { c.check(parse(t, c.body)) })
	}
}
