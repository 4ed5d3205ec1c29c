package extsort

import (
	"math/rand"
	"runtime"
	"testing"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// BenchmarkSortIndex builds an index over 2^18 distinct random records with
// 512 pool frames on the zero-latency memory backend at width 4, every
// overlap mode on. One iteration is a build and a release of the tree; the
// ns/record, allocs/record and ios/record columns divide it by the 2^18
// records, ios/record counting the build's block transfers alone.
func BenchmarkSortIndex(b *testing.B) {
	const n, width = 1 << 18, 4
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 4096, MemBlocks: 512, Disks: width})
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	recs := make([]record.Record, n)
	for i, k := range rand.New(rand.NewSource(1)).Perm(n) {
		recs[i] = record.Record{Key: uint64(k), Val: uint64(i)}
	}
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, recs)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Release()
	opts := &Options{Width: width}
	var ios uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s0 := vol.Stats().Total()
		tr, err := SortIndex(f, pool, 8, opts)
		if err != nil {
			b.Fatal(err)
		}
		ios += vol.Stats().Total() - s0
		if tr.Len() != n {
			b.Fatalf("indexed %d records, want %d", tr.Len(), n)
		}
		if err := tr.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/record")
	b.ReportMetric(float64(ios)/total, "ios/record")
}
