package shard

import (
	"runtime"
	"testing"

	"em/internal/btree"
	"em/internal/index"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// BenchmarkShardedScan times a full scan of 4 shards × 2^16 records, each
// shard a B-tree on its own zero-latency memory volume of 4 disks and
// 4096-byte blocks. stitched drains the sharded Tree's Scan, whose scanner
// pulls each leaf's records through btree.Scanner.NextBatch; stitched-next
// drains the same scan with NextBatch hidden, so every record crosses into
// the shard's scanner; per-shard drains each shard's own Scan in turn,
// the floor the stitching adds to. One iteration is one full scan: read
// ns/record and allocs/scan.
func BenchmarkShardedScan(b *testing.B) {
	const shards, perShard = 4, 1 << 16
	trees := make([]*btree.Tree, shards)
	splits := make([]uint64, shards-1)
	for i := range trees {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 4096, MemBlocks: 64, Disks: 4})
		defer vol.Close()
		pool := pdm.PoolFor(vol)
		recs := make([]record.Record, perShard)
		for j := range recs {
			k := uint64(i*perShard + j)
			recs[j] = record.Record{Key: k, Val: k}
		}
		f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, recs)
		if err != nil {
			b.Fatal(err)
		}
		if trees[i], err = btree.BulkLoad(vol, pool, 8, f, nil); err != nil {
			b.Fatal(err)
		}
		f.Release()
		if err := trees[i].Warm(); err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			splits[i-1] = uint64(i * perShard)
		}
	}
	tr, err := NewTree(trees, &TreeOptions{Splits: splits})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()

	drain := func(b *testing.B, sc index.Scanner) uint64 {
		defer sc.Close()
		var n uint64
		for {
			r, ok, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				return n
			}
			if r.Key != r.Val {
				b.Fatalf("record %v", r)
			}
			n++
		}
	}
	open := func(b *testing.B, ix index.Index) index.Scanner {
		sc, err := ix.Scan(0, ^uint64(0))
		if err != nil {
			b.Fatal(err)
		}
		return sc
	}
	for _, tc := range []struct {
		name string
		scan func(b *testing.B) uint64
	}{
		{"stitched", func(b *testing.B) uint64 { return drain(b, open(b, tr)) }},
		{"stitched-next", func(b *testing.B) uint64 { return drain(b, hideBatches(open(b, tr))) }},
		{"per-shard", func(b *testing.B) uint64 {
			var n uint64
			for _, sh := range trees {
				n += drain(b, open(b, sh))
			}
			return n
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := tc.scan(b); n != shards*perShard {
					b.Fatalf("scanned %d records, want %d", n, shards*perShard)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shards*perShard), "ns/record")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/scan")
		})
	}
}
