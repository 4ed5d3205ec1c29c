package stream

import (
	"runtime"
	"testing"

	"em/internal/pdm"
	"em/internal/record"
)

// BenchmarkStreams writes and then reads back 2^20 records through a
// width-4 stream on the zero-latency memory backend, on demand and
// ahead/behind. One iteration is the whole round trip; the ns/record and
// allocs/record columns divide it by the 2^20 records, each written once
// and read once.
func BenchmarkStreams(b *testing.B) {
	const n, width = 1 << 20, 4
	for _, c := range []struct {
		name    string
		overlap bool
	}{{"demand", false}, {"ahead", true}} {
		b.Run(c.name, func(b *testing.B) {
			vol := pdm.MustVolume(pdm.Config{BlockBytes: 4096, MemBlocks: 4 * width, Disks: width})
			defer vol.Close()
			pool := pdm.PoolFor(vol)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := NewFile[record.Record](vol, record.RecordCodec{})
				w, err := OpenSink(f, pool, width, depthOf(c.overlap))
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
				r, err := OpenSource(f, pool, width, depthOf(c.overlap))
				if err != nil {
					b.Fatal(err)
				}
				var sum uint64
				if err := Drain(r, func(v record.Record) error { sum += v.Val; return nil }); err != nil {
					b.Fatal(err)
				}
				r.Close()
				if sum != n*(n-1)/2 {
					b.Fatalf("read back sum %d, want %d", sum, uint64(n*(n-1)/2))
				}
				f.Release()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			recs := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/record")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/record")
		})
	}
}
