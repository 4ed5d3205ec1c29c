package match

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// src is a self-contained package, type-checked at path "x/res", whose
// body f holds every call shape the predicates classify.
const src = `package res

type Handle struct{}

type Box[T any] struct{}

type Pair[K, V any] struct{}

type Alias = Handle

type holder struct{ h *Handle }

func Open() (*Handle, error)       { return nil, nil }
func OpenAll() []*Handle           { return nil }
func OpenAlias() *Alias            { return nil }
func NewBox[T any]() *Box[T]       { return nil }
func NewPair[K, V any]() Pair[K, V] { return Pair[K, V]{} }
func (h *Handle) Close()           {}
func Use(h *Handle, n int)         {}
func Nothing()                     {}

func f() {
	h, err := Open()
	hs := OpenAll()
	a := OpenAlias()
	b := NewBox[int]()
	p := NewPair[int, string]()
	x := holder{h: h}
	h.Close()
	(h).Close()
	x.h.Close()
	Use(h, len(hs))
	Nothing()
	n := int(3)
	func() {}()
	_, _, _, _, _, _ = err, a, b, p, x, n
}
`

// fixture is src type-checked, with lookups by source text and by name.
type fixture struct {
	t    *testing.T
	fset *token.FileSet
	file *ast.File
	info *types.Info
}

func load(t *testing.T) *fixture {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "res.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := new(types.Config).Check("x/res", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, fset: fset, file: file, info: info}
}

// call returns the call expression whose source is text.
func (fx *fixture) call(text string) *ast.CallExpr {
	fx.t.Helper()
	var found *ast.CallExpr
	ast.Inspect(fx.file, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && src[fx.fset.Position(c.Pos()).Offset:fx.fset.Position(c.End()).Offset] == text {
			found = c
		}
		return found == nil
	})
	if found == nil {
		fx.t.Fatalf("no call %q", text)
	}
	return found
}

// local returns the object of f's local variable name.
func (fx *fixture) local(name string) types.Object {
	fx.t.Helper()
	body := fx.file.Decls[len(fx.file.Decls)-1].(*ast.FuncDecl).Body
	for id, obj := range fx.info.Defs {
		if id.Name == name && body.Pos() <= id.Pos() && id.Pos() < body.End() {
			return obj
		}
	}
	fx.t.Fatalf("no local %q", name)
	return nil
}

func TestCalleeName(t *testing.T) {
	fx := load(t)
	for text, want := range map[string]string{
		"Open()":                 "Open",
		"h.Close()":              "Close",
		"(h).Close()":            "Close",
		"x.h.Close()":            "Close",
		"NewBox[int]()":          "NewBox",
		"NewPair[int, string]()": "NewPair",
		"int(3)":                 "int",
		"len(hs)":                "len",
		"func() {}()":            "",
		"Use(h, len(hs))":        "Use",
	} {
		if got := CalleeName(fx.call(text)); got != want {
			t.Errorf("CalleeName(%s) = %q, want %q", text, got, want)
		}
	}
}

func TestResultTypes(t *testing.T) {
	fx := load(t)
	for _, tc := range []struct {
		call string
		want []string
	}{
		{"Open()", []string{"*x/res.Handle", "error"}},
		{"OpenAll()", []string{"[]*x/res.Handle"}},
		{"NewBox[int]()", []string{"*x/res.Box[int]"}},
		{"Nothing()", nil},   // no results
		{"int(3)", nil},      // a conversion
		{"len(hs)", nil},     // a builtin
		{"h.Close()", nil},   // a void method
		{"func() {}()", nil}, // a void literal
	} {
		got := ResultTypes(fx.info, fx.call(tc.call))
		if len(got) != len(tc.want) {
			t.Errorf("ResultTypes(%s) = %v, want %v", tc.call, got, tc.want)
			continue
		}
		for i, typ := range got {
			if typ.String() != tc.want[i] {
				t.Errorf("ResultTypes(%s)[%d] = %s, want %s", tc.call, i, typ, tc.want[i])
			}
		}
	}
}

func TestIsNamedAndIsSliceOfNamed(t *testing.T) {
	fx := load(t)
	result := func(call string, i int) types.Type { return ResultTypes(fx.info, fx.call(call))[i] }
	for _, tc := range []struct {
		name          string
		typ           types.Type
		pkg, typeName string
		named, slice  bool
	}{
		{"pointer stripped", result("Open()", 0), "res", "Handle", true, false},
		{"other package", result("Open()", 0), "pdm", "Handle", false, false},
		{"other name", result("Open()", 0), "res", "Box", false, false},
		{"universe type", result("Open()", 1), "res", "error", false, false},
		{"alias", result("OpenAlias()", 0), "res", "Handle", true, false},
		{"generic origin", result("NewBox[int]()", 0), "res", "Box", true, false},
		{"two type parameters", result("NewPair[int, string]()", 0), "res", "Pair", true, false},
		{"slice of pointers", result("OpenAll()", 0), "res", "Handle", false, true},
		{"slice, other name", result("OpenAll()", 0), "res", "Box", false, false},
	} {
		if got := IsNamed(tc.typ, tc.pkg, tc.typeName); got != tc.named {
			t.Errorf("%s: IsNamed(%s, %q, %q) = %v, want %v", tc.name, tc.typ, tc.pkg, tc.typeName, got, tc.named)
		}
		if got := IsSliceOfNamed(tc.typ, tc.pkg, tc.typeName); got != tc.slice {
			t.Errorf("%s: IsSliceOfNamed(%s, %q, %q) = %v, want %v", tc.name, tc.typ, tc.pkg, tc.typeName, got, tc.slice)
		}
	}
}

func TestReceiverIsAndHasArg(t *testing.T) {
	fx := load(t)
	h, hs := fx.local("h"), fx.local("hs")
	for _, tc := range []struct {
		call     string
		obj      types.Object
		receiver bool
		arg      bool
	}{
		{"h.Close()", h, true, false},
		{"(h).Close()", h, true, false},
		{"h.Close()", hs, false, false},
		{"x.h.Close()", h, false, false}, // a field, not the variable
		{"Use(h, len(hs))", h, false, true},
		{"Use(h, len(hs))", hs, false, false}, // nested in another call
		{"len(hs)", hs, false, true},
		{"Open()", h, false, false}, // defines h, does not take it
	} {
		call := fx.call(tc.call)
		if got := ReceiverIs(fx.info, call, tc.obj); got != tc.receiver {
			t.Errorf("ReceiverIs(%s, %s) = %v, want %v", tc.call, tc.obj.Name(), got, tc.receiver)
		}
		if got := HasArg(fx.info, call, tc.obj); got != tc.arg {
			t.Errorf("HasArg(%s, %s) = %v, want %v", tc.call, tc.obj.Name(), got, tc.arg)
		}
	}
}

func TestPathBase(t *testing.T) {
	for path, want := range map[string]string{
		"em/internal/pdm": "pdm",
		"pdm":             "pdm",
		"a/b/":            "",
		"":                "",
	} {
		if got := PathBase(path); got != want {
			t.Errorf("PathBase(%q) = %q, want %q", path, got, want)
		}
	}
}
