// Command emlint runs the repository's static analyzers — poolbalance,
// pinpair, joinasync, closesink — over Go package patterns and exits
// non-zero on any finding. It is the multichecker for the I/O-accounting
// disciplines every algorithm in this module hand-enforces:
//
//	poolbalance  every pool frame handed out reaches Release/ReleaseAll
//	             on all return paths (the M/B memory budget stays exact)
//	pinpair      every pinned cache page is unpinned on all return paths
//	             (pinned pages can never be evicted)
//	joinasync    every async batch deadline reaches Volume.Wait on all
//	             return paths (no batch's model time is skipped)
//	closesink    every opened Source/Sink/Scanner/Session/Cache is closed
//	             on all return paths (they hold frames and pins)
//
// A deliberate ownership transfer the analysis cannot see is annotated at
// the acquisition with `//emlint:owns: <why>`, which suppresses the
// report; CONTRIBUTING.md documents the disciplines and the escape hatch.
//
// Usage:
//
//	emlint [packages]     # defaults to ./...
//
// Exit status is 0 when clean, 1 on findings, 2 on load or usage errors.
// (The standard `go vet -vettool` protocol needs x/tools' unitchecker,
// which this offline toolchain does not ship; emlint therefore drives
// loading itself via `go list`.)
package main

import (
	"flag"
	"fmt"
	"os"

	"em/internal/analysis/emlint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: emlint [packages]\n\nruns the em I/O-accounting analyzers over the given package patterns\n(default ./...) and exits 1 on any finding:\n\n  poolbalance  pool frames are released\n  pinpair      cache pages are unpinned\n  joinasync    async batch deadlines reach Volume.Wait\n  closesink    streams, scanners, sessions and caches are closed\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := emlint.Check("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emlint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "emlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
