// Package pairing is the dataflow engine shared by the emlint analyzers.
// Each analyzer describes its discipline as a Spec — which calls acquire a
// resource, which calls release it — and the engine proves, per function,
// that every acquired resource is released, handed off, or provably absent
// on every path to every return.
//
// The analysis is a forward may-analysis over the cfg package's graph. Per
// resource the state is a set over {HeldFresh, Held, Safe}:
//
//   - HeldFresh: acquired, and the companion error variable (the trailing
//     error result of the acquiring call, if any) has not been reassigned,
//     so `if err != nil` still implies the resource is absent. The edge
//     refinement uses this to kill the false "leak on the error return"
//     path of the universal `v, err := acquire(); if err != nil { return }`
//     shape.
//   - Held: acquired; the error companion (if any) has been reused, so
//     error branches say nothing about the resource anymore.
//   - Safe: released, escaped, or known nil on this path.
//
// Escape is deliberately generous — returning the resource, storing it in
// a field, map, slice, or composite literal, passing it to any call,
// sending it on a channel, aliasing it, binding it to a variable from an
// enclosing scope (the admission-gate closure shape), or capturing it in
// a closure all transfer ownership and end tracking. The engine therefore only reports
// the shape every real leak fixed in this repo's history had: a
// locally-owned resource and a return path that forgets it. A deliberate
// handoff the engine cannot see is documented with an `//emlint:owns`
// comment on (or immediately above) the acquiring line, which suppresses
// the report.
package pairing

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"em/internal/analysis"
	"em/internal/analysis/cfg"
)

// A Spec describes one acquire/release discipline.
type Spec struct {
	// What names the resource in diagnostics, e.g. "pool frame".
	What string
	// Acquires classifies call: element i is true if result i hands the
	// caller a resource this Spec tracks. A nil slice means the call is
	// not an acquisition.
	Acquires func(info *types.Info, call *ast.CallExpr) []bool
	// Releases reports whether call releases the resource held in obj.
	// obj may appear as the method receiver, as an argument, or as the
	// callee itself.
	Releases func(info *types.Info, call *ast.CallExpr, obj types.Object) bool
	// Remedy is the diagnostic's "what to do" clause, e.g.
	// "release it on the unwind (Release, or ReleaseAll for batches)".
	Remedy string
}

// Run applies spec to every function and function literal in the pass.
func Run(pass *analysis.Pass, spec *Spec) {
	owns := ownsLines(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				analyzeBody(pass, spec, body, owns)
			}
			return true // visit nested literals too; each gets its own run
		})
	}
}

// ownsLines collects, per file line, whether an `//emlint:owns` annotation
// is present (on the acquiring line itself or the line above it).
func ownsLines(pass *analysis.Pass) map[string]map[int]bool {
	m := map[string]map[int]bool{}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, "emlint:owns") {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				lines := m[p.Filename]
				if lines == nil {
					lines = map[int]bool{}
					m[p.Filename] = lines
				}
				lines[p.Line] = true   // trailing comment on the acquire line
				lines[p.Line+1] = true // comment on the line above the acquire
			}
		}
	}
	return m
}

// A resource is one tracked acquisition in a function body.
type resource struct {
	obj  types.Object // the variable bound to the resource
	err  types.Object // trailing error result bound alongside, or nil
	stmt ast.Node     // the acquiring statement (strong update site)
	pos  token.Pos
	name string
	what string // callee name, for the diagnostic
}

// Per-resource dataflow state: a bitset of facts that may hold on some path
// reaching the program point.
const (
	bHeldFresh uint8 = 1 << iota // held; error companion still trustworthy
	bHeld                        // held; error companion reused
	bSafe                        // released / escaped / nil on this path
	bAnyHeld   = bHeldFresh | bHeld
)

func analyzeBody(pass *analysis.Pass, spec *Spec, body *ast.BlockStmt, owns map[string]map[int]bool) {
	res := discover(pass, spec, body, owns)
	if len(res) == 0 {
		return
	}
	g := cfg.New(body)
	a := &analyzer{pass: pass, spec: spec, res: res, g: g}
	a.solve()
	for i, r := range res {
		if a.in[g.Exit][i]&bAnyHeld != 0 && !a.deferReleases(body, r) {
			pass.Reportf(r.pos, "%s %q (from %s) is not released on every path to return; %s, or mark the acquisition //emlint:owns if ownership moves somewhere emlint cannot see",
				spec.What, r.name, r.what, spec.Remedy)
		}
	}
}

// discover finds the tracked acquisitions in body (skipping nested function
// literals, which are analyzed on their own) and reports immediately on
// results that are discarded outright.
func discover(pass *analysis.Pass, spec *Spec, body *ast.BlockStmt, owns map[string]map[int]bool) []*resource {
	var res []*resource
	suppressed := func(pos token.Pos) bool {
		p := pass.Fset.Position(pos)
		return owns[p.Filename][p.Line]
	}
	bind := func(stmt ast.Node, lhs []ast.Expr, call *ast.CallExpr) {
		tracked := spec.Acquires(pass.TypesInfo, call)
		if tracked == nil || suppressed(call.Pos()) || len(lhs) != len(tracked) {
			return
		}
		// Trailing error result assigned to a plain variable, if any.
		var errObj types.Object
		if n := len(lhs); n > 1 {
			if id, ok := lhs[n-1].(*ast.Ident); ok && id.Name != "_" {
				if obj := objectOf(pass.TypesInfo, id); obj != nil && isErrorType(obj.Type()) {
					errObj = obj
				}
			}
		}
		for i, isRes := range tracked {
			if !isRes {
				continue
			}
			id, ok := lhs[i].(*ast.Ident)
			if !ok {
				continue // stored straight into a field/element: escape
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(), "%s result of %s is discarded; %s",
					spec.What, calleeName(call), spec.Remedy)
				continue
			}
			obj := objectOf(pass.TypesInfo, id)
			if obj == nil {
				continue
			}
			if obj.Pos() < body.Pos() || obj.Pos() >= body.End() {
				// Bound to a variable declared outside this body — a
				// captured outer variable (the admission-gate closure
				// shape: `err := gate.Do(func() error { s, err =
				// open(...); ... })`) or a named result. Either way
				// ownership lands in an enclosing scope: an escape.
				continue
			}
			res = append(res, &resource{
				obj: obj, err: errObj, stmt: stmt,
				pos: id.Pos(), name: id.Name, what: calleeName(call),
			})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed separately
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					bind(n, n.Lhs, call)
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 {
				if call, ok := n.Values[0].(*ast.CallExpr); ok {
					lhs := make([]ast.Expr, len(n.Names))
					for i, id := range n.Names {
						lhs[i] = id
					}
					bind(n, lhs, call)
				}
			}
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				break
			}
			tracked := spec.Acquires(pass.TypesInfo, call)
			if tracked == nil || suppressed(call.Pos()) {
				break
			}
			for _, isRes := range tracked {
				if isRes {
					pass.Reportf(call.Pos(), "%s result of %s is discarded; %s",
						spec.What, calleeName(call), spec.Remedy)
					break
				}
			}
		}
		return true
	})
	return res
}

type analyzer struct {
	pass *analysis.Pass
	spec *Spec
	res  []*resource
	g    *cfg.Graph
	in   map[*cfg.Block][]uint8
}

func (a *analyzer) solve() {
	a.in = make(map[*cfg.Block][]uint8, len(a.g.Blocks))
	for _, b := range a.g.Blocks {
		a.in[b] = make([]uint8, len(a.res))
	}
	// Seed every block, not just the entry: with an all-bottom initial
	// state the first sweep often changes nothing, and a change-driven
	// worklist would otherwise never look past the entry chain.
	work := make([]*cfg.Block, len(a.g.Blocks))
	onWork := make(map[*cfg.Block]bool, len(a.g.Blocks))
	copy(work, a.g.Blocks)
	for _, b := range work {
		onWork[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		onWork[b] = false
		state := append([]uint8(nil), a.in[b]...)
		for _, n := range b.Nodes {
			a.transfer(n, state)
		}
		for _, e := range b.Succs {
			out := append([]uint8(nil), state...)
			a.refine(e, out)
			dst := a.in[e.To]
			changed := false
			for i := range dst {
				if dst[i]|out[i] != dst[i] {
					dst[i] |= out[i]
					changed = true
				}
			}
			if changed && !onWork[e.To] {
				work = append(work, e.To)
				onWork[e.To] = true
			}
		}
	}
}

// transfer applies one straight-line node to the state.
func (a *analyzer) transfer(n ast.Node, state []uint8) {
	for i, r := range a.res {
		if n == r.stmt {
			// Strong update at the acquisition site. Other resources
			// appearing in the call's arguments are handled by their own
			// transferOne below.
			state[i] = bHeldFresh
			continue
		}
		a.transferOne(n, r, &state[i])
	}
}

func (a *analyzer) transferOne(n ast.Node, r *resource, st *uint8) {
	info := a.pass.TypesInfo
	switch n := n.(type) {
	case *ast.DeferStmt:
		a.deferStmt(n, r, st)
	case *ast.GoStmt:
		if mentions(n.Call, r.obj, info) {
			markSafe(st) // escapes into the goroutine
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			if passesValue(e, r.obj, info) {
				markSafe(st) // ownership returned to the caller
				return
			}
		}
		// `return f.Buf` or `return sum, src.Err()` return a projection,
		// not the resource; scan classifies any calls in the results.
		for _, e := range n.Results {
			a.scan(e, r, st)
		}
	case *ast.RangeStmt:
		a.rangeHeader(n, r, st)
	case *ast.AssignStmt:
		a.assign(n, r, st)
	case *ast.SendStmt:
		if mentions(n.Value, r.obj, info) {
			markSafe(st) // sent away on a channel
			return
		}
		a.scan(n.Chan, r, st)
	default:
		a.scan(n, r, st)
	}
}

// scan walks one straight-line node (a simple statement or a bare
// expression from a branch condition or case clause) for effects on r:
// release calls, escapes into calls, closures, composite literals, or
// address-taking.
func (a *analyzer) scan(n ast.Node, r *resource, st *uint8) {
	info := a.pass.TypesInfo
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			if mentionsIn(m, r.obj, info) {
				markSafe(st) // captured by a closure: escapes
			}
			return false
		case *ast.CallExpr:
			a.callEffect(m, r, st)
		case *ast.CompositeLit:
			if mentionsIn(m, r.obj, info) {
				markSafe(st) // stored in a literal: escapes
				return false
			}
		case *ast.UnaryExpr:
			if m.Op == token.AND && mentions(m.X, r.obj, info) {
				markSafe(st) // address taken: escapes
				return false
			}
		case *ast.ValueSpec:
			for _, v := range m.Values {
				if isIdentFor(v, r.obj, info) {
					markSafe(st) // aliased: escapes
					return false
				}
			}
		}
		return true
	})
}

// callEffect classifies one call's effect on r: release, benign use, or
// escape.
func (a *analyzer) callEffect(call *ast.CallExpr, r *resource, st *uint8) {
	info := a.pass.TypesInfo
	if a.spec.Releases(info, call, r.obj) {
		release(st)
		return
	}
	// The resource as the callee itself or as a method receiver is a
	// benign use: r.method(...) reads or advances the resource without
	// transferring ownership.
	if isIdentFor(call.Fun, r.obj, info) {
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isIdentFor(sel.X, r.obj, info) {
		return
	}
	// Builtins that inspect without consuming.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap":
			return
		}
	}
	for _, arg := range call.Args {
		if passesValue(arg, r.obj, info) {
			markSafe(st) // handed to another function: ownership escapes
			return
		}
	}
}

// passesValue reports whether arg hands the resource itself to a callee:
// the bare identifier, its address, or a composite literal containing it.
// Projections — f.Buf, f[i], f[:n] — lend a view of the resource without
// transferring ownership, so they are benign uses, not escapes.
func passesValue(arg ast.Expr, obj types.Object, info *types.Info) bool {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		return objectOf(info, e) == obj
	case *ast.UnaryExpr:
		return e.Op == token.AND && passesValue(e.X, obj, info)
	case *ast.CompositeLit:
		return mentionsIn(e, obj, info)
	case *ast.FuncLit:
		return mentionsIn(e, obj, info) // captured: escapes via the closure
	}
	return false
}

// assign handles reassignment of the resource or its companion error
// variable, and aliasing.
func (a *analyzer) assign(n *ast.AssignStmt, r *resource, st *uint8) {
	info := a.pass.TypesInfo
	for _, lhs := range n.Lhs {
		if isIdentFor(lhs, r.obj, info) {
			markSafe(st) // overwritten (commonly `v = nil` after handoff)
			return
		}
		if r.err != nil && isIdentFor(lhs, r.err, info) {
			// The error companion now holds some other call's error;
			// `if err != nil` no longer implies the resource is absent.
			if *st&bHeldFresh != 0 {
				*st = (*st &^ bHeldFresh) | bHeld
			}
		}
	}
	// `_ = v` keeps nothing alive: only a binding to a real name (or a
	// field/element store, handled by scan below) transfers ownership.
	allBlank := true
	for _, lhs := range n.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
			allBlank = false
		}
	}
	for _, rhs := range n.Rhs {
		if !allBlank && isIdentFor(rhs, r.obj, info) {
			markSafe(st) // plain alias: `g := f`
			return
		}
		a.scan(rhs, r, st)
	}
	for _, lhs := range n.Lhs {
		a.scan(lhs, r, st) // index expressions etc. on the left
	}
}

// deferStmt recognizes deferred releases — `defer v.Close()` and
// `defer func() { ... v.Close() ... }()` — which cover every path out of
// the function from this point on.
func (a *analyzer) deferStmt(n *ast.DeferStmt, r *resource, st *uint8) {
	info := a.pass.TypesInfo
	if a.spec.Releases(info, n.Call, r.obj) {
		release(st)
		return
	}
	if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && a.spec.Releases(info, call, r.obj) {
				found = true
			}
			return !found
		})
		if found {
			release(st)
			return
		}
		// A deferred closure may release a ranged-over slice's elements.
		if a.releasesElements(lit.Body, r) {
			release(st)
			return
		}
	}
	if mentionsIn(n.Call, r.obj, info) {
		markSafe(st) // deferred handoff we cannot model: stop tracking
	}
}

// rangeHeader recognizes the batch-release idiom
//
//	for _, f := range frames { f.Release() }
//
// as a release of the ranged-over slice resource.
func (a *analyzer) rangeHeader(n *ast.RangeStmt, r *resource, st *uint8) {
	info := a.pass.TypesInfo
	if !isIdentFor(n.X, r.obj, info) {
		a.scan(n.X, r, st)
		return
	}
	if released := a.rangeReleases(n, r); released {
		release(st)
	}
}

// rangeReleases reports whether the range statement iterates r's slice
// releasing each element.
func (a *analyzer) rangeReleases(n *ast.RangeStmt, r *resource) bool {
	info := a.pass.TypesInfo
	val, ok := n.Value.(*ast.Ident)
	if !ok || val.Name == "_" {
		return false
	}
	elem := objectOf(info, val)
	if elem == nil {
		return false
	}
	released := false
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && a.spec.Releases(info, call, elem) {
			released = true
		}
		return !released
	})
	return released
}

// deferReleases reports whether any defer statement in body releases r —
// directly, through a deferred closure, or by releasing a ranged batch's
// elements. The flow analysis only credits defers executed after the
// acquisition; this pass additionally credits the cleanup idiom where the
// defer is registered before a loop that (re)assigns the resource:
//
//	var w *stream.Writer[Op]
//	defer func() { if w != nil { w.Close() } }()
//	for ... { w, err = stream.NewWriter(...); ... }
//
// A defer registered only on some paths is credited on all of them; that
// trades a rare false negative for never flagging this correct shape.
func (a *analyzer) deferReleases(body ast.Node, r *resource) bool {
	info := a.pass.TypesInfo
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested function's defers are its own
		case *ast.DeferStmt:
			if a.spec.Releases(info, n.Call, r.obj) {
				found = true
				return false
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && a.spec.Releases(info, call, r.obj) {
						found = true
					}
					return !found
				})
				if !found && a.releasesElements(lit.Body, r) {
					found = true
				}
			}
			return false
		}
		return true
	})
	return found
}

// releasesElements reports whether body contains a range over r's slice
// that releases each element (the deferred-cleanup variant).
func (a *analyzer) releasesElements(body ast.Node, r *resource) bool {
	info := a.pass.TypesInfo
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if rng, ok := m.(*ast.RangeStmt); ok && isIdentFor(rng.X, r.obj, info) {
			if a.rangeReleases(rng, r) {
				found = true
			}
		}
		return !found
	})
	return found
}

// refine applies branch-condition facts along an edge: on the nil side of a
// `v == nil` test the resource is absent, and on the error side of an
// `err != nil` test a still-fresh acquisition is known to have failed.
func (a *analyzer) refine(e cfg.Edge, state []uint8) {
	if e.Cond == nil {
		return
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return
	}
	var operand ast.Expr
	switch {
	case isNil(bin.Y):
		operand = bin.X
	case isNil(bin.X):
		operand = bin.Y
	default:
		return
	}
	id, ok := ast.Unparen(operand).(*ast.Ident)
	if !ok {
		return
	}
	obj := objectOf(a.pass.TypesInfo, id)
	if obj == nil {
		return
	}
	// nilEdge: this edge is the one taken when the operand is nil.
	nilEdge := (bin.Op == token.EQL) == e.CondTrue
	for i, r := range a.res {
		if obj == r.obj && nilEdge {
			state[i] = markedSafe(state[i]) // the resource itself is nil here
		}
		if r.err != nil && obj == r.err && !nilEdge {
			// err != nil on this edge: a still-fresh acquisition failed,
			// so its resource is absent here. Paths where the companion
			// was reused (bHeld) keep their held fact.
			if state[i]&bHeldFresh != 0 {
				state[i] = (state[i] &^ bHeldFresh) | bSafe
			}
		}
	}
}

func markSafe(st *uint8) { *st = markedSafe(*st) }

// markedSafe moves any held fact to Safe; an unacquired (zero) state stays
// zero.
func markedSafe(st uint8) uint8 {
	if st == 0 {
		return 0
	}
	return (st &^ bAnyHeld) | bSafe
}

func release(st *uint8) {
	if *st&bAnyHeld != 0 {
		*st = (*st &^ bAnyHeld) | bSafe
	}
}

// --- small AST/type helpers ---

func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func isIdentFor(e ast.Expr, obj types.Object, info *types.Info) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && objectOf(info, id) == obj
}

// mentions reports whether obj is referenced anywhere inside e.
func mentions(e ast.Expr, obj types.Object, info *types.Info) bool {
	return mentionsIn(e, obj, info)
}

func mentionsIn(n ast.Node, obj types.Object, info *types.Info) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && objectOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return calleeName(&ast.CallExpr{Fun: fn.X})
	case *ast.IndexListExpr:
		return calleeName(&ast.CallExpr{Fun: fn.X})
	}
	return "call"
}
