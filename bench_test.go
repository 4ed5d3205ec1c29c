package em

// bench_test.go holds the engine micro-benchmarks: the concurrent per-disk
// worker engine's batched reads, and synchronous against forecasting
// (async) streams on the sorts, a compute-heavy scan and the bulk loader.
// Each reports counted block I/Os beside wall clock. The survey's
// experiment tables are printed by cmd/embench and their shapes asserted by
// the tests in internal/experiments.

import (
	"fmt"
	"testing"
	"time"

	"em/internal/experiments"
)

// BenchmarkVolumeBatchRead measures the wall-clock effect of the concurrent
// per-disk worker engine: the same 64-block striped read workload at a fixed
// per-block service latency, swept over disk counts. With D disks the
// workers overlap service, so elapsed time drops by ≈D while counted block
// I/Os stay constant — the acceptance check for the parallel engine is
// Disks=4 beating Disks=1 by at least 2x here.
func BenchmarkVolumeBatchRead(b *testing.B) {
	const (
		blocks  = 32
		width   = 4
		latency = 2 * time.Millisecond // above timer granularity so D, not the clock, dominates
	)
	for _, disks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("Disks=%d", disks), func(b *testing.B) {
			vol := MustVolume(Config{BlockBytes: 4096, MemBlocks: 16, Disks: disks, DiskLatency: latency})
			defer vol.Close()
			base := vol.Alloc(blocks)
			src := make([]byte, 4096)
			for a := int64(0); a < blocks; a++ {
				if err := vol.WriteBlock(base+a, src); err != nil {
					b.Fatal(err)
				}
			}
			addrs := make([]int64, width)
			bufs := make([][]byte, width)
			for i := range bufs {
				bufs[i] = make([]byte, 4096)
			}
			vol.Stats().Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for blk := 0; blk < blocks; blk += width {
					for j := 0; j < width; j++ {
						addrs[j] = base + int64(blk+j)
					}
					if err := vol.BatchRead(addrs, bufs); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			s := vol.Stats().Snapshot()
			b.ReportMetric(float64(s.Reads)/float64(b.N), "blockreads/op")
			b.ReportMetric(float64(s.Steps)/float64(b.N), "iosteps/op")
		})
	}
}

// BenchmarkAsyncMergeSort compares synchronous and forecast-driven
// asynchronous merge sort on a latency volume; counted I/Os are reported
// alongside wall-clock so both currencies are visible. Counted I/Os must be
// identical; the async path wins modestly on the clock by overlapping run
// reads with run writes (the full overlap win on compute-heavy consumers is
// BenchmarkAsyncScan's subject).
func BenchmarkAsyncMergeSort(b *testing.B) {
	const n = 1 << 12
	for _, async := range []bool{false, true} {
		b.Run(fmt.Sprintf("async=%v", async), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vol := MustVolume(Config{BlockBytes: 512, MemBlocks: 64, Disks: 4, DiskLatency: 50 * time.Microsecond})
				pool := PoolFor(vol)
				f, err := FromSlice(vol, pool, RecordCodec{}, experiments.RandomRecords(42, n))
				if err != nil {
					b.Fatal(err)
				}
				vol.Stats().Reset()
				b.StartTimer()
				sorted, err := SortRecords(f, pool, &SortOptions{Width: 4, Async: async})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if sorted.Len() != n {
					b.Fatal("bad output length")
				}
				if i == b.N-1 {
					s := vol.Stats().Snapshot()
					b.ReportMetric(float64(s.Reads+s.Writes), "blockios")
					b.ReportMetric(float64(s.Steps), "iosteps")
				}
				vol.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAsyncScan measures forecasting read-ahead where it pays: a scan
// whose consumer does real per-record work. The synchronous scan serialises
// fetch and compute; the prefetching scan overlaps them, approaching
// max(I/O, compute) instead of their sum.
func BenchmarkAsyncScan(b *testing.B) {
	const n = 1 << 12
	work := func(r Record) uint64 {
		h := r.Key
		for i := 0; i < 60000; i++ {
			h = h*2654435761 + r.Val
		}
		return h
	}
	for _, async := range []bool{false, true} {
		b.Run(fmt.Sprintf("async=%v", async), func(b *testing.B) {
			vol := MustVolume(Config{BlockBytes: 512, MemBlocks: 16, Disks: 4, DiskLatency: 2 * time.Millisecond})
			defer vol.Close()
			pool := PoolFor(vol)
			f, err := FromSlice(vol, pool, RecordCodec{}, experiments.RandomRecords(7, n))
			if err != nil {
				b.Fatal(err)
			}
			vol.Stats().Reset()
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan := ForEach[Record]
				if async {
					scan = AsyncScan[Record]
				}
				if err := scan(f, pool, func(r Record) error {
					sink += work(r)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = sink
			s := vol.Stats().Snapshot()
			b.ReportMetric(float64(s.Reads)/float64(b.N), "blockreads/op")
			b.ReportMetric(float64(s.Steps)/float64(b.N), "iosteps/op")
		})
	}
}

// BenchmarkAsyncDistributionSort is BenchmarkAsyncMergeSort's twin for the
// distribution path: synchronous vs forecast-driven bucket partitioning on a
// latency volume, counted I/Os reported alongside wall-clock. Memory is
// sized so both variants partition in one level (the async fan-out is half).
func BenchmarkAsyncDistributionSort(b *testing.B) {
	const n = 1 << 12
	for _, async := range []bool{false, true} {
		b.Run(fmt.Sprintf("async=%v", async), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vol := MustVolume(Config{BlockBytes: 512, MemBlocks: 96, Disks: 4, DiskLatency: 50 * time.Microsecond})
				pool := PoolFor(vol)
				f, err := FromSlice(vol, pool, RecordCodec{}, experiments.RandomRecords(42, n))
				if err != nil {
					b.Fatal(err)
				}
				vol.Stats().Reset()
				b.StartTimer()
				sorted, err := DistributionSort(f, pool, Record.Less, &SortOptions{Width: 4, Async: async})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if sorted.Len() != n {
					b.Fatal("bad output length")
				}
				if i == b.N-1 {
					s := vol.Stats().Snapshot()
					b.ReportMetric(float64(s.Reads+s.Writes), "blockios")
					b.ReportMetric(float64(s.Steps), "iosteps")
				}
				vol.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAsyncBulkLoad measures forecasting read-ahead on B-tree bulk
// loading: the prefetching input reader overlaps the sorted run's block
// fetches with leaf packing and node write-backs.
func BenchmarkAsyncBulkLoad(b *testing.B) {
	const n = 1 << 12
	for _, async := range []bool{false, true} {
		b.Run(fmt.Sprintf("async=%v", async), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				vol := MustVolume(Config{BlockBytes: 512, MemBlocks: 64, Disks: 4, DiskLatency: 50 * time.Microsecond})
				pool := PoolFor(vol)
				recs := make([]Record, n)
				for j := range recs {
					recs[j] = Record{Key: uint64(j + 1), Val: uint64(j)}
				}
				f, err := FromSlice(vol, pool, RecordCodec{}, recs)
				if err != nil {
					b.Fatal(err)
				}
				vol.Stats().Reset()
				b.StartTimer()
				tr, err := BulkLoadBTreeWith(vol, pool, 8, f, &BulkLoadOptions{Width: 4, Async: async})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if tr.Len() != n {
					b.Fatal("bad tree size")
				}
				if i == b.N-1 {
					s := vol.Stats().Snapshot()
					b.ReportMetric(float64(s.Reads+s.Writes), "blockios")
					b.ReportMetric(float64(s.Steps), "iosteps")
				}
				if err := tr.Close(); err != nil {
					b.Fatal(err)
				}
				vol.Close()
				b.StartTimer()
			}
		})
	}
}
