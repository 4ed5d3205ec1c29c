// Package analysis is a small static-analysis framework in the shape of
// golang.org/x/tools/go/analysis, built on the standard library's go/ast and
// go/types only. The toolchain image this repository builds in has no module
// proxy access, so x/tools cannot be a dependency; the subset implemented
// here — Analyzer, Pass, Diagnostic, a package loader and an analysistest
// harness — is exactly what the emlint checkers need, with the same names so
// the suite can migrate to the real framework by swapping imports if the
// dependency ever becomes available.
//
// The analyzers themselves live in subpackages and encode the repository's
// I/O-accounting disciplines: poolbalance (pool frames are released),
// pinpair (cache pages are unpinned), joinasync (async batch deadlines
// reach Volume.Wait) and closesink (streams, scanners, sessions and caches
// are closed). See the pairing subpackage for the shared dataflow engine
// and cmd/emlint for the multichecker driver.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with the syntax and type information of a
// single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
