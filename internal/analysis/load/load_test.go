package load

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoad loads two packages of a small module: one that imports the
// other, and one with a test file that does not type-check. Both come back
// parsed and type-checked, in import-path order, without their test files.
func TestLoad(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "mod"), "./uses", "./good")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.PkgPath)
	}
	if want := "example.com/m/good example.com/m/uses"; strings.Join(paths, " ") != want {
		t.Fatalf("loaded %v, want %s", paths, want)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("%s: type errors: %v", p.PkgPath, p.TypeErrors)
		}
		if p.Types == nil || !p.Types.Complete() || p.Types.Path() != p.PkgPath {
			t.Errorf("%s: types %v, want a complete package", p.PkgPath, p.Types)
		}
		if len(p.Files) != 1 {
			t.Errorf("%s: %d files, want 1", p.PkgPath, len(p.Files))
		}
		for _, f := range p.Files {
			if name := p.Fset.File(f.Pos()).Name(); strings.HasSuffix(name, "_test.go") {
				t.Errorf("%s: loaded test file %s", p.PkgPath, name)
			}
		}
	}
	good, uses := pkgs[0], pkgs[1]
	if good.Types.Scope().Lookup("Upper") == nil || good.Types.Scope().Lookup("testOnly") != nil {
		t.Errorf("good's scope holds %v, want Upper and not testOnly", good.Types.Scope().Names())
	}
	// The call in uses resolves, through good's export data, to good.Upper.
	var callee types.Object
	ast.Inspect(uses.Files[0], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			callee = uses.TypesInfo.Uses[sel.Sel]
		}
		return true
	})
	if fn, ok := callee.(*types.Func); !ok || fn.Pkg().Path() != "example.com/m/good" || fn.Name() != "Upper" {
		t.Errorf("good.Upper in uses resolves to %v", callee)
	}
}

// TestLoadTypeError checks that a package that does not type-check fails
// the load with an error naming it.
func TestLoadTypeError(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "mod"), "./bad")
	if err == nil {
		t.Fatalf("Load of a package that does not type-check returned %d packages and no error", len(pkgs))
	}
	if !strings.Contains(err.Error(), "example.com/m/bad") {
		t.Errorf("error does not name the package: %v", err)
	}
}
