package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"em/internal/btree"
	"em/internal/extsort"
	"em/internal/pdm"
	"em/internal/pipeline"
	"em/internal/record"
	"em/internal/store"
	"em/internal/stream"
)

// BenchResult is one machine-readable benchmark point of the repository's
// performance trajectory: a workload in one I/O mode at one disk count,
// with both currencies — wall-clock milliseconds and counted block I/Os.
// cmd/embench -json emits a slice of these (BENCH_*.json); future PRs
// compare their own trajectory files against the committed ones.
type BenchResult struct {
	// Workload is mergesort | distsort | bulkload | sortindex for the
	// build side, getbatch | rangescan for the query-serving side.
	Workload string `json:"workload"`
	// Mode is sync | async for the sorts; the bulk load adds writebehind
	// and the sortindex build reports its leaf path instead — pipelined or
	// pipelined+wb, both on async streams. The build has since been fused
	// (the sort emits into the loader) and the old sequential point is the
	// same build as pipelined; the two labels stay so the committed series
	// continues. The query points compare loop | batched point lookups and
	// sync | prefetch scans.
	Mode    string  `json:"mode"`
	Disks   int     `json:"disks"`
	Records int     `json:"records"`
	WallMs  float64 `json:"wallMs"`
	Reads   uint64  `json:"reads"`
	Writes  uint64  `json:"writes"`
	Steps   uint64  `json:"steps"`
	// Retries counts transient service errors re-driven by the volume's
	// retry policy (zero on fault-free points); since PR 9 the faulted
	// serving points carry it so the trajectory shows the audit beside
	// the identical Reads/Writes.
	Retries uint64 `json:"retries,omitempty"`
	// P50Ms/P99Ms are per-request latency percentiles and Shed the count
	// of requests turned away by admission control, reported by the
	// open-loop robustness points (F15); zero elsewhere.
	P50Ms float64 `json:"p50Ms,omitempty"`
	P99Ms float64 `json:"p99Ms,omitempty"`
	Shed  uint64  `json:"shed,omitempty"`
}

// BenchTrajectory measures the repository's headline perf surface: merge
// sort, distribution sort, B-tree bulk load and the sort→index build —
// synchronous vs forecast-driven asynchronous, plus the write-behind loader
// and the fused build with and without it — and, since PR 5, the query-serving side (looped
// vs batched point lookups, sync vs prefetched range scans), at D ∈ {1, 4},
// on a worker-engine volume with a fixed per-block service latency (so wall
// clock reflects the model's parallel-step cost, not host noise). Since
// PR 8 it also takes the sharded serving points: the merge-cut batched
// lookup and the stitched scan at S ∈ {1, 4} single-shape volumes, with
// aggregated counters. Since PR 9 it adds the robustness points (the F15
// surface): the open-loop YCSB-style mix at half and twice calibrated
// capacity under uniform and Zipf popularity, with p50/p99 latency and
// shed counts, and the clean-vs-faulted serving pair whose counted I/Os
// must stay identical with retries audited. Counted I/Os come from the
// same Stats every experiment table reports, reset per workload.
func BenchTrajectory(quick bool) ([]BenchResult, error) {
	n, latency := 1<<13, 2*time.Millisecond
	if quick {
		n, latency = 1<<11, 250*time.Microsecond
	}
	var out []BenchResult
	for _, d := range []int{1, 4} {
		for _, async := range []bool{false, true} {
			rs, err := benchPoint(n, d, async, latency)
			if err != nil {
				return nil, err
			}
			out = append(out, rs...)
		}
		rs, err := storeBenchPoint(n, d, latency)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	rs, err := shardBenchPoint(n, latency)
	if err != nil {
		return nil, err
	}
	out = append(out, rs...)
	ops := 320
	if quick {
		ops = 160
	}
	rs, err = robustBenchPoint(n, ops, latency)
	if err != nil {
		return nil, err
	}
	out = append(out, rs...)
	return out, nil
}

// storeBenchPoint measures the online store's trajectory points at one
// disk count (the F13 surface): absorbing a random update mix through the
// in-memory write front versus per-key B-tree inserts, and point-read serving
// quiesced versus with a generation handover in flight.
func storeBenchPoint(n, d int, latency time.Duration) ([]BenchResult, error) {
	cfg := pdm.Config{BlockBytes: 1024, MemBlocks: 256, Disks: d, DiskLatency: latency}
	vol, err := newVolume(cfg)
	if err != nil {
		return nil, err
	}
	defer vol.Close()
	pool := pdm.PoolFor(vol)

	var out []BenchResult
	measure := func(workload, mode string, records int, fn func() error) error {
		vol.Stats().Reset()
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s %s D=%d: %w", workload, mode, d, err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		s := vol.Stats().Snapshot()
		out = append(out, BenchResult{
			Workload: workload, Mode: mode, Disks: d, Records: records,
			WallMs: ms, Reads: s.Reads, Writes: s.Writes, Steps: s.Steps,
		})
		return nil
	}

	keys := rand.New(rand.NewSource(0xF13)).Perm(n)
	if err := measure("store", "btree-loop", n, func() error {
		tr, err := btree.New(vol, pool, 8)
		if err != nil {
			return err
		}
		for i, k := range keys {
			if _, err := tr.Insert(uint64(k+1), uint64(i)); err != nil {
				return err
			}
		}
		return tr.Release()
	}); err != nil {
		return nil, err
	}

	var st *store.Store
	if err := measure("store", "buffered", n, func() error {
		var err error
		st, err = store.Open(vol, pool, store.Config{FrontOps: int64(n / 2)})
		if err != nil {
			return err
		}
		for i, k := range keys {
			if err := st.Insert(uint64(k+1), uint64(i)); err != nil {
				return err
			}
		}
		return st.Drain()
	}); err != nil {
		return nil, err
	}

	const serveReads = 200
	rng := rand.New(rand.NewSource(0x5E12))
	read := func() error {
		k := uint64(rng.Intn(n) + 1)
		if _, ok, err := st.Get(k); err != nil || !ok {
			return fmt.Errorf("get(%d): ok=%v err=%v", k, ok, err)
		}
		return nil
	}
	if err := measure("store", "serve-quiesced", serveReads, func() error {
		for i := 0; i < serveReads; i++ {
			if err := read(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	for i := 0; i < n/2; i++ {
		if err := st.Insert(uint64(rng.Intn(n)+1), uint64(i)); err != nil {
			return nil, err
		}
	}
	inDrain := 0
	if err := measure("store", "serve-drain", serveReads, func() error {
		if !st.StartDrain() {
			return nil
		}
		for st.Draining() {
			if err := read(); err != nil {
				return err
			}
			inDrain++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out[len(out)-1].Records = inDrain
	if err := st.Drain(); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// benchPoint runs the three workloads at one (disks, mode) coordinate,
// owning its volume for exactly its scope.
func benchPoint(n, d int, async bool, latency time.Duration) ([]BenchResult, error) {
	// MemBlocks matches F10: sized so the async paths' halved fan-out keeps
	// the same pass count as sync across the D sweep.
	cfg := pdm.Config{BlockBytes: 1024, MemBlocks: 96, Disks: d, DiskLatency: latency}
	vol, err := newVolume(cfg)
	if err != nil {
		return nil, err
	}
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	mode := "sync"
	if async {
		mode = "async"
	}
	opts := &extsort.Options{Width: d, Async: async}

	var out []BenchResult
	measure := func(workload string, fn func() error) error {
		vol.Stats().Reset()
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s %s D=%d: %w", workload, mode, d, err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		s := vol.Stats().Snapshot()
		out = append(out, BenchResult{
			Workload: workload, Mode: mode, Disks: d, Records: n,
			WallMs: ms, Reads: s.Reads, Writes: s.Writes, Steps: s.Steps,
		})
		return nil
	}

	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, RandomRecords(41, n))
	if err != nil {
		return nil, err
	}
	if err := measure("mergesort", func() error {
		sorted, err := extsort.MergeSort(f, pool, record.Record.Less, opts)
		if err != nil {
			return err
		}
		sorted.Release()
		return nil
	}); err != nil {
		return nil, err
	}
	if err := measure("distsort", func() error {
		sorted, err := extsort.DistributionSort(f, pool, record.Record.Less, opts)
		if err != nil {
			return err
		}
		sorted.Release()
		return nil
	}); err != nil {
		return nil, err
	}

	sorted := make([]record.Record, n)
	for i := range sorted {
		sorted[i] = record.Record{Key: uint64(i + 1), Val: uint64(i)}
	}
	sf, err := stream.FromSlice(vol, pool, record.RecordCodec{}, sorted)
	if err != nil {
		return nil, err
	}
	if err := measure("bulkload", func() error {
		tr, err := btree.BulkLoad(vol, pool, 8, sf, &btree.BulkLoadOptions{Width: d, Async: async})
		if err != nil {
			return err
		}
		return tr.Close()
	}); err != nil {
		return nil, err
	}
	if !async {
		return out, nil
	}

	// The write-behind loader and the sort→index compositions ride the
	// async pass only: their interesting axis is composition, not the
	// stream mode, which is async throughout.
	mode = "writebehind"
	if err := measure("bulkload", func() error {
		tr, err := btree.BulkLoad(vol, pool, 8, sf, &btree.BulkLoadOptions{Width: d, Async: true, WriteBehind: true})
		if err != nil {
			return err
		}
		return tr.Close()
	}); err != nil {
		return nil, err
	}

	perm := make([]record.Record, n) // SortIndex needs distinct keys
	for i, k := range rand.New(rand.NewSource(43)).Perm(n) {
		perm[i] = record.Record{Key: uint64(k + 1), Val: uint64(i)}
	}
	pf, err := stream.FromSlice(vol, pool, record.RecordCodec{}, perm)
	if err != nil {
		return nil, err
	}
	for _, ix := range []struct {
		mode string
		wb   bool
	}{
		{"pipelined", false},
		{"pipelined+wb", true},
	} {
		mode = ix.mode
		if err := measure("sortindex", func() error {
			tr, err := pipeline.SortIndex(pf, pool, &pipeline.Options{
				Width: d, Async: true, WriteBehind: ix.wb,
			})
			if err != nil {
				return err
			}
			return tr.Close()
		}); err != nil {
			return nil, err
		}
	}

	// The query-serving side (the F12 surface): one-at-a-time vs batched
	// point lookups and sync vs prefetched full scans over a bulk-loaded
	// tree with resident internals. The scans run before the point queries
	// so both see the same warm fan-out and cold leaves.
	tr, err := btree.BulkLoad(vol, pool, 16, sf, &btree.BulkLoadOptions{Width: d, Async: true, WriteBehind: true})
	if err != nil {
		return nil, err
	}
	// Rehome flushes the internals still dirty from construction so the
	// sync Range's window is not charged their write-backs; Warm then makes
	// the fan-out resident for every query point.
	if err := tr.Rehome(pool, 16); err != nil {
		return nil, err
	}
	if err := tr.Warm(); err != nil {
		return nil, err
	}
	full := ^uint64(0)
	mode = "prefetch"
	if err := measure("rangescan", func() error {
		return tr.RangePrefetch(pool, 0, full, nil, func(k, v uint64) error { return nil })
	}); err != nil {
		return nil, err
	}
	mode = "sync"
	if err := measure("rangescan", func() error {
		return tr.Range(0, full, func(k, v uint64) error { return nil })
	}); err != nil {
		return nil, err
	}
	// Re-warm: the sync Range just streamed the leaves through the tree
	// cache, evicting the fan-out the point paths are documented to start
	// from.
	if err := tr.Warm(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(47))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(n+n/8) + 1)
	}
	mode = "loop"
	if err := measure("getbatch", func() error {
		for _, k := range keys {
			if _, _, err := tr.Get(k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	mode = "batched"
	if err := measure("getbatch", func() error {
		_, _, err := tr.GetBatch(keys)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.Close(); err != nil {
		return nil, err
	}
	return out, nil
}
