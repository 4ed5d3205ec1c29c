package pairing

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"

	"em/internal/analysis"
	"em/internal/analysis/match"
)

// src holds one function per case: the acquire/release discipline of spec
// below, kept, broken, and broken only on an error path.
const src = `package p

type R struct{}

func acquire() (*R, error) { return &R{}, nil }
func release(r *R)         {}
func work() error          { return nil }
func (r *R) use()          {}

// neverReleased acquires r, uses it, and returns without releasing it.
func neverReleased() error {
	r, err := acquire()
	if err != nil {
		return err
	}
	r.use()
	return work()
}

// deferred releases r with a defer once the acquisition succeeded; the
// error return before it holds no resource.
func deferred() error {
	r, err := acquire()
	if err != nil {
		return err
	}
	defer release(r)
	return work()
}

// successOnly releases r only when work succeeds: the error return of
// the second err != nil branch leaks it, because err no longer says
// anything about r once work's error overwrote it.
func successOnly() error {
	r, err := acquire()
	if err != nil {
		return err
	}
	if err = work(); err != nil {
		return err
	}
	release(r)
	return nil
}
`

// spec tracks the *R acquire hands out; release(r) releases it.
var spec = &Spec{
	What: "test resource",
	Acquires: func(info *types.Info, call *ast.CallExpr) []bool {
		if match.CalleeName(call) != "acquire" {
			return nil
		}
		return []bool{true, false}
	},
	Releases: func(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
		return match.CalleeName(call) == "release" && match.HasArg(info, call, obj)
	},
	Remedy: "release it",
}

// TestRunFlagsOnlyLeakingFunctions runs the engine over src and checks
// that exactly the two leaking functions are reported, each at its
// acquisition, with the spec's wording.
func TestRunFlagsOnlyLeakingFunctions(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	pass := &analysis.Pass{Fset: fset, Files: []*ast.File{file}, Pkg: pkg, TypesInfo: info,
		Report: func(d analysis.Diagnostic) {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Pos() <= d.Pos && d.Pos < fn.End() {
					flagged = append(flagged, fn.Name.Name)
				}
			}
			if line := fset.Position(d.Pos).Line; !strings.Contains(strings.Split(src, "\n")[line-1], "acquire()") {
				t.Errorf("diagnostic on line %d, not at an acquisition: %s", line, d.Message)
			}
			if !strings.HasPrefix(d.Message, `test resource "r" (from acquire)`) || !strings.Contains(d.Message, "release it") {
				t.Errorf("diagnostic %q does not use the spec's wording", d.Message)
			}
		}}
	Run(pass, spec)
	slices.Sort(flagged)
	if want := []string{"neverReleased", "successOnly"}; !slices.Equal(flagged, want) {
		t.Errorf("flagged %v, want %v", flagged, want)
	}
}
