// Package pinpair enforces the buffer-cache pin discipline: every
// *cache.Page (or []*cache.Page batch) pinned by a call — Cache.Get, Pin,
// GetNew, Peek, GetBatchAsync, or any helper returning pages — is unpinned
// on every path to return, unless the page escapes into a structure that
// owns the pin or the acquisition is annotated //emlint:owns. A page whose
// pin count never returns to zero can never be evicted, which silently
// shrinks the cache until admission fails.
package pinpair

import (
	"go/ast"
	"go/types"

	"em/internal/analysis"
	"em/internal/analysis/match"
	"em/internal/analysis/pairing"
)

var Analyzer = &analysis.Analyzer{
	Name: "pinpair",
	Doc:  "check that pinned cache pages are unpinned on every return path",
	Run:  run,
}

var spec = &pairing.Spec{
	What: "pinned page",
	Acquires: func(info *types.Info, call *ast.CallExpr) []bool {
		results := match.ResultTypes(info, call)
		var tracked []bool
		any := false
		for _, t := range results {
			isPage := match.IsNamed(t, "cache", "Page") || match.IsSliceOfNamed(t, "cache", "Page")
			tracked = append(tracked, isPage)
			any = any || isPage
		}
		if !any {
			return nil
		}
		return tracked
	},
	Releases: func(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
		switch match.CalleeName(call) {
		// Unpin is the public release; failBatch and discard are the
		// cache's internal paths that also drop the pin.
		case "Unpin", "failBatch", "discard":
			return match.HasArg(info, call, obj)
		}
		return false
	},
	Remedy: "unpin it on the unwind (Cache.Unpin)",
}

func run(pass *analysis.Pass) error {
	pairing.Run(pass, spec)
	return nil
}
