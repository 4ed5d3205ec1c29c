package em

// querybench_test.go benchmarks the query-serving read path added with the
// batched/prefetched B-tree subsystem: BenchmarkGetBatch pits a batch of
// point lookups against a loop of Gets, BenchmarkRangeScan the forecasting
// leaf-chain scanner against the synchronous Range. Both run on a
// latency volume with a fixed per-block latency so the wall clock
// reflects the model's parallel-step cost; counted reads are reported
// alongside, where the batch's dedup saving is directly visible.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// benchTree builds a bulk-loaded tree over keys 1..n with warm internal
// levels on a fresh latency volume.
func benchTree(b *testing.B, n, disks int, latency time.Duration) (*Volume, *Pool, *BTree) {
	b.Helper()
	vol := MustVolume(Config{BlockBytes: 1024, MemBlocks: 96, Disks: disks, DiskLatency: latency})
	pool := PoolFor(vol)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: uint64(i + 1), Val: uint64(i)}
	}
	f, err := FromSlice(vol, pool, RecordCodec{}, recs)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := BulkLoadBTreeWith(vol, pool, 16, f, &BulkLoadOptions{Width: disks})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Warm(); err != nil {
		b.Fatal(err)
	}
	return vol, pool, tr
}

// BenchmarkGetBatch measures a 512-key point batch served one Get at a time
// vs through GetBatch, which sorts, dedupes shared internals, and fans the
// leaf reads across the disks.
func BenchmarkGetBatch(b *testing.B) {
	const (
		n       = 1 << 12
		q       = 512
		latency = 500 * time.Microsecond
	)
	for _, batched := range []bool{false, true} {
		b.Run(fmt.Sprintf("batched=%v", batched), func(b *testing.B) {
			vol, _, tr := benchTree(b, n, 4, latency)
			defer vol.Close()
			defer tr.Close()
			rng := rand.New(rand.NewSource(12))
			keys := make([]uint64, q)
			for i := range keys {
				keys[i] = uint64(rng.Intn(n+n/8) + 1)
			}
			vol.Stats().Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if batched {
					if _, _, err := tr.GetBatch(keys); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for _, k := range keys {
					if _, _, err := tr.Get(k); err != nil {
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

// BenchmarkRangeScan measures a full-tree scan through the synchronous
// Range vs the prefetched Scanner keeping D leaf reads in flight; counted
// reads are identical, the clock divides by ≈D.
func BenchmarkRangeScan(b *testing.B) {
	const (
		n       = 1 << 12
		latency = 500 * time.Microsecond
	)
	for _, prefetch := range []bool{false, true} {
		b.Run(fmt.Sprintf("prefetch=%v", prefetch), func(b *testing.B) {
			vol, pool, tr := benchTree(b, n, 4, latency)
			defer vol.Close()
			defer tr.Close()
			vol.Stats().Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cnt := 0
				fn := func(k, v uint64) error { cnt++; return nil }
				var err error
				if prefetch {
					err = tr.RangePrefetch(pool, 0, ^uint64(0), nil, fn)
				} else {
					err = tr.Range(0, ^uint64(0), fn)
				}
				if err != nil {
					b.Fatal(err)
				}
				if cnt != n {
					b.Fatalf("scan returned %d of %d records", cnt, n)
				}
			}
			b.StopTimer()
			s := vol.Stats().Snapshot()
			b.ReportMetric(float64(s.Reads)/float64(b.N), "blockreads/op")
			b.ReportMetric(float64(s.Steps)/float64(b.N), "iosteps/op")
		})
	}
}
