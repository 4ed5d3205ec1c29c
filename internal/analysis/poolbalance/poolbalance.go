// Package poolbalance enforces the pool-frame discipline: every
// *pdm.Frame (or []*pdm.Frame batch) handed out by a call — Pool.Alloc,
// MustAlloc, AllocN, or any helper returning frames — reaches a matching
// Frame.Release / pdm.ReleaseAll on every path to return, and every
// *pdm.Pool from Pool.Carve, which holds its parent's frames, reaches its
// Close, unless ownership provably escapes (returned, stored, passed on)
// or the acquisition is annotated //emlint:owns. This is the invariant behind Pool.InUse()==0
// leak checks: a frame forgotten on an error unwind permanently shrinks
// the memory budget M/B that the PDM cost model charges against.
package poolbalance

import (
	"go/ast"
	"go/types"

	"em/internal/analysis"
	"em/internal/analysis/match"
	"em/internal/analysis/pairing"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolbalance",
	Doc:  "check that pool frames are released or handed off on every return path",
	Run:  run,
}

var spec = &pairing.Spec{
	What: "pool frame",
	Acquires: func(info *types.Info, call *ast.CallExpr) []bool {
		results := match.ResultTypes(info, call)
		var tracked []bool
		any := false
		carve := match.CalleeName(call) == "Carve"
		for _, t := range results {
			isFrame := match.IsNamed(t, "pdm", "Frame") || match.IsSliceOfNamed(t, "pdm", "Frame") ||
				carve && match.IsNamed(t, "pdm", "Pool")
			tracked = append(tracked, isFrame)
			any = any || isFrame
		}
		if !any {
			return nil
		}
		return tracked
	},
	Releases: func(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
		switch match.CalleeName(call) {
		case "Release", "Close":
			return match.ReceiverIs(info, call, obj)
		case "ReleaseAll":
			return match.HasArg(info, call, obj)
		}
		return false
	},
	Remedy: "release it on the unwind (Frame.Release, pdm.ReleaseAll for batches, Pool.Close for a carve)",
}

func run(pass *analysis.Pass) error {
	pairing.Run(pass, spec)
	return nil
}
