package btree

import (
	"runtime"
	"testing"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// BenchmarkBulkLoad bulk-loads 2^20 sorted records from a file through the
// pull face (BulkLoad → BulkLoadFrom → Loader.Append) on the zero-latency
// memory backend at width 4. One iteration is a load and a release of the
// tree; the ns/record and allocs/record columns divide
// it by the 2^20 records. It guards the per-record cost of the loop the
// store's drains and the serving benchmarks' set-up run.
func BenchmarkBulkLoad(b *testing.B) {
	const n, width = 1 << 20, 4
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 4096, MemBlocks: 64, Disks: width})
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	f := stream.NewFile[record.Record](vol, record.RecordCodec{})
	w, err := stream.OpenSink(f, pool, width, 1)
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		if err := w.Append(record.Record{Key: k, Val: k}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	defer f.Release()
	opts := &BulkLoadOptions{Width: width}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := BulkLoad(vol, pool, 8, f, opts)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() != n {
			b.Fatalf("loaded %d records, want %d", tr.Len(), n)
		}
		if err := tr.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	recs := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/record")
}
