// Package match holds the small type- and call-shape predicates the emlint
// analyzers share: "is this a call (not a conversion or builtin)?", "what
// are its result types?", "is this type <pkg>.<Name>?". Types are matched
// by defining-package basename plus type name rather than full import path
// so the same analyzers run unchanged against this module's packages, the
// em facade's aliases (aliases preserve type identity), and the analyzers'
// own self-contained testdata stubs.
package match

import (
	"go/ast"
	"go/types"
	"strings"
)

// ResultTypes returns the result types of call, or nil if call is not a
// genuine function or method call (type conversions and builtins return
// nil).
func ResultTypes(info *types.Info, call *ast.CallExpr) []types.Type {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return nil
	}
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		if tv.Type == nil || tv.IsVoid() {
			return nil
		}
		return []types.Type{tv.Type}
	}
}

// CalleeName returns the name of the called function or method, or "".
func CalleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.IndexExpr:
		return CalleeName(&ast.CallExpr{Fun: fn.X})
	case *ast.IndexListExpr:
		return CalleeName(&ast.CallExpr{Fun: fn.X})
	}
	return ""
}

// IsNamed reports whether t (after stripping pointers) is a named type
// Name defined in a package whose path basename is pkgBase. Generic
// instantiations match their origin name.
func IsNamed(t types.Type, pkgBase, name string) bool {
	t = types.Unalias(t)
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PathBase(obj.Pkg().Path()) == pkgBase
}

// IsSliceOfNamed reports whether t is []E with E matching IsNamed.
func IsSliceOfNamed(t types.Type, pkgBase, name string) bool {
	s, ok := types.Unalias(t).(*types.Slice)
	return ok && IsNamed(s.Elem(), pkgBase, name)
}

// ReceiverIs reports whether call is a method call whose receiver
// expression is exactly the object obj.
func ReceiverIs(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	if got := info.Uses[id]; got != nil {
		return got == obj
	}
	return info.Defs[id] == obj
}

// HasArg reports whether obj appears as a direct argument of call.
func HasArg(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	for _, a := range call.Args {
		id, ok := ast.Unparen(a).(*ast.Ident)
		if !ok {
			continue
		}
		if info.Uses[id] == obj || info.Defs[id] == obj {
			return true
		}
	}
	return false
}

// PathBase returns the last element of an import path.
func PathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
