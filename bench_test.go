package em

// bench_test.go holds the engine micro-benchmarks: batched reads on a
// latency volume, and an on-demand against a forecasting (read-ahead) scan
// with a compute-heavy consumer.
// Each reports counted block I/Os beside wall clock. The survey's
// experiment tables are printed by cmd/embench and their shapes asserted by
// the tests in internal/experiments.

import (
	"fmt"
	"testing"
	"time"

	"em/internal/experiments"
)

// BenchmarkVolumeBatchRead measures the wall-clock effect of striping on a
// latency volume: the same 64-block striped read workload at a fixed
// per-block service latency, swept over disk counts. With D disks each
// batch's shares reserve D timelines side by side, so elapsed time drops by
// ≈D while counted block I/Os stay constant — the acceptance check for the
// parallel engine is Disks=4 beating Disks=1 by at least 2x here.
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
