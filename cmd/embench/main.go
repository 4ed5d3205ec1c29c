// Command embench regenerates every table and figure of the survey
// reproduction as aligned text rows. The shape tests in
// internal/experiments run the same experiments at reduced sweeps and
// assert the survey's claims on them.
//
// Usage:
//
//	embench                 # run everything
//	embench T1 F4 ...       # run selected experiment ids
//	embench -quick          # reduced sweeps (seconds instead of minutes)
//	embench -list           # list experiment ids and claims
//	embench -dir path       # file-backed volumes: disks are real files under path
//
// Most numbers are counted block transfers on the instrumented Parallel
// Disk Model, the survey's currency. The volume's per-disk engine takes a
// configurable service latency, so wall clock is meaningful too, and every
// experiment prints its elapsed time. T1–T9 and F1–F8 are the survey's
// bounds in counted I/Os. F9–F14 measure the engine on the clock: F9 the
// striped scan and forecasting prefetch, F10 forecasting in distribution
// sort and bulk loading, F11 write-behind and the fused sort→index build,
// F12 batched lookups, prefetched scans and read sessions, F13 the online
// store's write front and reads through a drain, and F14 the sharded
// facade. F12–F14 check their own acceptance gates and fail when one is
// missed.
//
// With -dir every experiment volume maps its simulated disks to real files
// under the given directory (one numbered subdirectory per volume), so the
// full catalogue exercises actual storage with identical counted I/Os.
//
// Any experiment failure is reported on stderr and the remaining
// experiments still run, but the process exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"em/internal/experiments"
)

// experiment couples an id with the function that regenerates its table.
type experiment struct {
	id    string
	claim string
	run   func(quick bool) (*experiments.Table, error)
}

var catalogue = []experiment{
	{"T1", "fundamental bounds: Scan/Sort/Search match Θ-formulas", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T1FundamentalBounds([]int{1 << 12, 1 << 14})
		}
		return experiments.T1FundamentalBounds([]int{1 << 14, 1 << 16, 1 << 18})
	}},
	{"T2", "merge ≈ distribution ≈ Sort(N); B-tree insertion sort loses ~B/log m", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T2SortingAlgorithms([]int{1 << 12})
		}
		return experiments.T2SortingAlgorithms([]int{1 << 12, 1 << 14, 1 << 16})
	}},
	{"F1", "merge passes = ceil(log_m(runs)) as memory sweeps", func(q bool) (*experiments.Table, error) {
		n := 1 << 16
		if q {
			n = 1 << 14
		}
		return experiments.F1MergePassesVsMemory(n, []int{2, 4, 8, 16, 64, 256})
	}},
	{"F2", "replacement selection: 2M runs on random input, 1 run nearly-sorted", func(q bool) (*experiments.Table, error) {
		n := 1 << 16
		if q {
			n = 1 << 13
		}
		return experiments.F2RunFormation(n)
	}},
	{"F3", "disk striping: scan steps ÷D, striped sort pays reduced arity", func(q bool) (*experiments.Table, error) {
		n := 1 << 15
		if q {
			n = 1 << 13
		}
		return experiments.F3DiskStriping(n, []int{1, 2, 4, 8})
	}},
	{"T3", "permuting Θ(min(N, Sort(N))): crossover location", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T3Permuting([]int{1 << 8, 1 << 12})
		}
		return experiments.T3Permuting([]int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16})
	}},
	{"T4", "transpose: blocked beats naive column walk ≈ ×B", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T4Transpose([]int{32, 64})
		}
		return experiments.T4Transpose([]int{32, 64, 128, 256})
	}},
	{"T5", "online search: binary > B-tree > hashing in probes/lookup", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T5OnlineSearch(1<<13, 100)
		}
		return experiments.T5OnlineSearch(1<<17, 500)
	}},
	{"T6", "buffer tree amortised insert ≪ B-tree insert", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T6BufferTreeVsBTree([]int{1 << 12})
		}
		return experiments.T6BufferTreeVsBTree([]int{1 << 12, 1 << 14, 1 << 16})
	}},
	{"T7", "external PQ ≈ Sort(N) total vs B-tree PQ Θ(N log_B N)", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T7PriorityQueue([]int{1 << 12})
		}
		return experiments.T7PriorityQueue([]int{1 << 12, 1 << 14, 1 << 16})
	}},
	{"T8", "distribution sweep vs all-pairs segment intersection", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T8DistributionSweep([]int{256, 512})
		}
		return experiments.T8DistributionSweep([]int{256, 1024, 4096})
	}},
	{"T9", "B-tree build: sort+bulk load ≪ repeated insertion", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.T9BulkLoad([]int{1 << 12})
		}
		return experiments.T9BulkLoad([]int{1 << 12, 1 << 14, 1 << 16})
	}},
	{"F4", "list ranking O(Sort(N)) vs pointer chasing Θ(N)", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F4ListRanking([]int{1 << 10, 1 << 12})
		}
		return experiments.F4ListRanking([]int{1 << 10, 1 << 13, 1 << 15})
	}},
	{"F5", "external BFS O(V+Sort(E)) vs naive Θ(V+E)", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F5ExternalBFS([]int{500})
		}
		return experiments.F5ExternalBFS([]int{500, 2000, 8000})
	}},
	{"F6", "paging: MIN ≤ LRU/FIFO/CLOCK; LRU pathological on loops", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F6Paging(24, 16, 5)
		}
		return experiments.F6Paging(48, 32, 20)
	}},
	{"F7", "FFT: six-step O(Sort(N)) vs unblocked butterflies Θ(N·log₂N)", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F7FFT([]int{1 << 8})
		}
		return experiments.F7FFT([]int{1 << 8, 1 << 10, 1 << 12})
	}},
	{"F8", "time-forward processing O(Sort(E)) vs per-arc reads Θ(E)", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F8TimeForward([]int{500})
		}
		return experiments.F8TimeForward([]int{1000, 4000, 16000})
	}},
	{"F9", "concurrent engine: wall-clock ÷D at equal blocks; prefetch overlaps compute", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F9ParallelEngine(1<<11, []int{1, 4}, 2*time.Millisecond)
		}
		return experiments.F9ParallelEngine(1<<12, []int{1, 2, 4, 8}, 2*time.Millisecond)
	}},
	{"F10", "forecasting beyond merge: distribution sort and bulk load read ahead and write behind across D", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F10ForecastSortIndex(1<<13, []int{1, 4}, 2*time.Millisecond)
		}
		return experiments.F10ForecastSortIndex(1<<13, []int{1, 2, 4, 8}, 2*time.Millisecond)
	}},
	{"F11", "a width-D write-behind bulk load writes D leaves per step; the fused build drops the sorted file", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F11WriteBehind(1<<13, []int{1, 4}, 2*time.Millisecond)
		}
		return experiments.F11WriteBehind(1<<13, []int{1, 2, 4, 8}, 2*time.Millisecond)
	}},
	{"F12", "query serving: batched lookups dedupe and fan reads across D; prefetched scans and sessions scale", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F12QueryServing(1<<12, []int{1, 4}, 2*time.Millisecond)
		}
		return experiments.F12QueryServing(1<<13, []int{1, 2, 4, 8}, 2*time.Millisecond)
	}},
	{"F13", "online store: in-memory write front absorbs updates cheaper than per-key inserts; reads stay live through handover", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F13StoreOnline(1<<12, []int{1, 4}, 2*time.Millisecond)
		}
		return experiments.F13StoreOnline(1<<13, []int{1, 2, 4, 8}, 2*time.Millisecond)
	}},
	{"F14", "sharded serving: merge-cut batches scale QPS toward S volumes; aggregated stats backend-identical", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F14ShardedServing(1<<12, []int{1, 4}, 2*time.Millisecond)
		}
		return experiments.F14ShardedServing(1<<13, []int{1, 2, 4}, 2*time.Millisecond)
	}},
}

func main() {
	var (
		quick = flag.Bool("quick", false, "reduced parameter sweeps")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		dir   = flag.String("dir", "", "file-backed volumes: store simulated disks as real files under this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range catalogue {
			fmt.Printf("%-4s %s\n", e.id, e.claim)
		}
		return
	}
	if *dir != "" {
		experiments.SetVolumeDir(*dir)
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	ran, failed := 0, 0
	for _, e := range catalogue {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		ran++
		start := time.Now()
		tab, err := runExperiment(e, *quick)
		if err != nil {
			// Report and keep going so one broken experiment doesn't hide
			// the state of the rest, but fail the process at the end.
			fmt.Fprintf(os.Stderr, "embench: %s: FAILED: %v\n", e.id, err)
			failed++
			continue
		}
		fmt.Print(tab.String())
		fmt.Printf("   elapsed: %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "embench: no experiment matched %v (try -list)\n", flag.Args())
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "embench: %d of %d experiments failed\n", failed, ran)
		os.Exit(1)
	}
}

// runExperiment runs one experiment, converting a panic — experiments.NewEnv
// panics when a volume cannot be created, e.g. -dir on an unwritable path —
// into an error, so one broken experiment is reported like any other failure
// instead of killing the rest of the catalogue.
func runExperiment(e experiment, quick bool) (tab *experiments.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.run(quick)
}
