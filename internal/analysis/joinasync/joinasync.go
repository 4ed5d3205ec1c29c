// Package joinasync enforces the async-batch discipline: every deadline
// returned by a dispatching call (Volume.BatchReadAsync,
// Volume.BatchWriteAsync, Cache.GetBatchAsync, and any *Async helper
// returning a time.Time) reaches Volume.Wait on every path to return. The
// batch's bytes moved, and its error was decided, at dispatch; the deadline
// is when the disks finish serving it in model time. A path that drops the
// deadline reports an overlap it never paid for: the caller returns, and
// hands its frames back, while the model still has the batch in flight, so
// wall clock undercounts the batch's parallel steps. A failed dispatch
// needs no wait (the `if err != nil { return err }` unwind is silent), and
// discarding the deadline (`_` or a bare call statement) is reported
// unconditionally.
package joinasync

import (
	"go/ast"
	"go/types"
	"strings"

	"em/internal/analysis"
	"em/internal/analysis/match"
	"em/internal/analysis/pairing"
)

var Analyzer = &analysis.Analyzer{
	Name: "joinasync",
	Doc:  "check that every async batch deadline reaches Volume.Wait on every return path",
	Run:  run,
}

var spec = &pairing.Spec{
	What: "async batch deadline",
	Acquires: func(info *types.Info, call *ast.CallExpr) []bool {
		if !strings.HasSuffix(match.CalleeName(call), "Async") {
			return nil
		}
		results := match.ResultTypes(info, call)
		var tracked []bool
		any := false
		for _, t := range results {
			isDeadline := match.IsNamed(t, "time", "Time")
			tracked = append(tracked, isDeadline)
			any = any || isDeadline
		}
		if !any {
			return nil
		}
		return tracked
	},
	Releases: func(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
		// The deadline is released by waiting on it: vol.Wait(deadline).
		return match.CalleeName(call) == "Wait" && match.HasArg(info, call, obj)
	},
	Remedy: "pass it to Volume.Wait before every return (including unwinds after a successful dispatch) so no batch's model time is skipped",
}

func run(pass *analysis.Pass) error {
	pairing.Run(pass, spec)
	return nil
}
