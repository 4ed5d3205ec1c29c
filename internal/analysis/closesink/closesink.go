// Package closesink enforces the stream lifecycle discipline: opened
// stream Sources and Sinks (Reader and Writer at either depth, and the
// Source/Sink interfaces), B-tree bulk Loaders, Scanners and Sessions, store
// Scanners and Sessions, sharded Scanners and Sessions, sessions behind
// the unified index.Session interface, and Caches are closed on every path
// to return — a Loader closed or aborted — unless they escape into a struct
// or caller that owns them or the acquisition is annotated //emlint:owns.
// These types hold pool frames and pinned pages; a Source dropped on an
// error unwind leaks its frames, an unclosed Writer opened behind abandons
// its in-flight batch, a dropped Loader strands every node it allocated,
// and a dropped sharded handle leaks per-shard frames on every volume it
// spans.
package closesink

import (
	"go/ast"
	"go/types"

	"em/internal/analysis"
	"em/internal/analysis/match"
	"em/internal/analysis/pairing"
)

var Analyzer = &analysis.Analyzer{
	Name: "closesink",
	Doc:  "check that opened sources, sinks, scanners, sessions and caches are closed on every return path",
	Run:  run,
}

// closeable lists the tracked types as (defining package basename, type
// name). The em facade's aliases resolve to these same types.
var closeable = [...][2]string{
	{"stream", "Reader"},
	{"stream", "Writer"},
	{"stream", "Source"},
	{"stream", "Sink"},
	{"btree", "Loader"},
	{"btree", "Scanner"},
	{"btree", "Session"},
	{"store", "Scanner"},
	{"store", "Session"},
	{"shard", "Scanner"},
	{"shard", "Session"},
	{"index", "Session"},
	{"cache", "Cache"},
}

func isCloseable(t types.Type) bool {
	for _, c := range closeable {
		if match.IsNamed(t, c[0], c[1]) {
			return true
		}
	}
	return false
}

var spec = &pairing.Spec{
	What: "open stream/handle",
	Acquires: func(info *types.Info, call *ast.CallExpr) []bool {
		results := match.ResultTypes(info, call)
		var tracked []bool
		any := false
		for _, t := range results {
			is := isCloseable(t)
			tracked = append(tracked, is)
			any = any || is
		}
		if !any {
			return nil
		}
		return tracked
	},
	Releases: func(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
		// Abort is the Loader's release on a path that keeps no tree.
		if name := match.CalleeName(call); name != "Close" && name != "Abort" {
			return false
		}
		return match.ReceiverIs(info, call, obj)
	},
	Remedy: "close it on the unwind (Close releases its frames and joins any in-flight batch)",
}

func run(pass *analysis.Pass) error {
	pairing.Run(pass, spec)
	return nil
}
