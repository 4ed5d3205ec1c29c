// Command embench regenerates every table and figure of the survey
// reproduction as aligned text rows — the same experiments bench_test.go
// runs under testing.B, at the full parameter sweeps recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	embench                 # run everything
//	embench T1 F4 ...       # run selected experiment ids
//	embench -quick          # reduced sweeps (seconds instead of minutes)
//	embench -list           # list experiment ids and claims
//	embench -dir path       # file-backed volumes: disks are real files under path
//	embench -json out.json  # emit the machine-readable benchmark trajectory
//
// Most numbers are counted block transfers on the instrumented Parallel
// Disk Model — the survey's currency. Since the volume grew a concurrent
// per-disk engine with a configurable service latency, wall-clock time is
// meaningful too: every experiment prints its elapsed time, F9 sweeps the
// engine itself (elapsed ms falling ×D at constant block count, and
// forecasting prefetch overlapping compute with I/O), F10 extends the
// forecasting comparison to distribution sort and B-tree bulk loading, F11
// covers the write side — write-behind leaf batching and the pipelined
// sort→index build against their synchronous twins — F12 the read side:
// batched point lookups, prefetched range scans, and concurrent read
// sessions against one-at-a-time serving, on both storage backends — and
// F13 the online store that composes the two: buffer-tree write absorption
// against per-key B-tree inserts, and read throughput while a background
// drain hands a new B-tree generation over — F14 the sharded serving
// facade: merge-cut batched lookups and stitched scans across S
// range-partitioned volumes against the single-volume layout, with
// aggregated counters pinned byte-identical across backends — and F15 the
// robustness surface: an open-loop YCSB-style mix at twice calibrated
// capacity shedding typed overload errors instead of failing, a faulted
// volume with retries serving identical counted I/Os at bounded p99, and
// a batch across a crashed shard degrading to a partial result. F12–F15
// check their own acceptance gates and fail (non-zero exit) when one is
// missed, so CI can gate on the sweeps.
//
// With -dir every experiment volume maps its simulated disks to real files
// under the given directory (one numbered subdirectory per volume), so the
// full catalogue exercises actual storage with identical counted I/Os.
//
// With -json the catalogue is skipped; instead the benchmark trajectory —
// sync vs async merge sort, distribution sort, B-tree bulk load (plus its
// write-behind mode), the sequential vs pipelined sort→index build, the
// query-serving points (looped vs batched lookups, sync vs prefetched
// scans), the online store's mixed-workload points (buffered writes vs
// per-key inserts, serving quiesced vs through a drain) at D ∈ {1, 4},
// the sharded serving points (merge-cut batch and stitched scan at
// S ∈ {1, 4} volumes), and the robustness points (open-loop latency and
// shed profile, clean-vs-faulted serving with retry audit), wall-clock
// and counted I/Os — is written to the given file
// (the repository commits these as BENCH_*.json, one per PR, so perf
// regressions show up as a diffable series; `make bench-json` regenerates
// the current one).
//
// Any experiment failure is reported on stderr and the remaining
// experiments still run, but the process exits non-zero, so CI gates on it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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
	{"F10", "forecasting beyond merge: async distribution sort and bulk load overlap I/O across D", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F10ForecastSortIndex(1<<13, []int{1, 4}, 2*time.Millisecond)
		}
		return experiments.F10ForecastSortIndex(1<<13, []int{1, 2, 4, 8}, 2*time.Millisecond)
	}},
	{"F11", "write-behind bulk load and sort→index pipeline recover the write path's serialization", func(q bool) (*experiments.Table, error) {
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
	{"F15", "robustness: oversubscribed load sheds typed; faulted retries keep counted I/Os; crashed shard degrades", func(q bool) (*experiments.Table, error) {
		if q {
			return experiments.F15Robustness(1<<11, 160, 2*time.Millisecond)
		}
		return experiments.F15Robustness(1<<12, 320, 2*time.Millisecond)
	}},
}

func main() {
	var (
		quick   = flag.Bool("quick", false, "reduced parameter sweeps")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		dir     = flag.String("dir", "", "file-backed volumes: store simulated disks as real files under this directory")
		jsonOut = flag.String("json", "", "skip the catalogue; write the benchmark trajectory as JSON to this file")
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

	if *jsonOut != "" {
		if err := writeBenchJSON(*jsonOut, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "embench:", err)
			os.Exit(1)
		}
		return
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
			// the state of the rest, but fail the process at the end — CI
			// gates on the exit code.
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

// benchFile is the on-disk shape of a BENCH_*.json trajectory file.
type benchFile struct {
	// Schema names the measurement set so future PRs with different
	// trajectories stay distinguishable.
	Schema string `json:"schema"`
	Go     string `json:"go"`
	OS     string `json:"os"`
	Arch   string `json:"arch"`
	Quick  bool   `json:"quick"`
	// Results holds one point per (workload, mode, disks) coordinate.
	Results []experiments.BenchResult `json:"results"`
}

// writeBenchJSON measures the benchmark trajectory and writes it to path.
func writeBenchJSON(path string, quick bool) error {
	results, err := experiments.BenchTrajectory(quick)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(benchFile{
		Schema:  "em-bench-trajectory/v3",
		Go:      runtime.Version(),
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
		Quick:   quick,
		Results: results,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o666)
}
