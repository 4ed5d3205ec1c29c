//go:build goexperiment.synctest

package extsort

// Model time for the sort and the bulk load it feeds, asserted exactly
// inside a testing/synctest bubble, where the clock moves only when every
// goroutine is blocked. Run with `make modeltime` (GOEXPERIMENT=synctest).

import (
	"testing"
	"testing/synctest"
	"time"

	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

const modelLatency = 2 * time.Millisecond

// modelRun builds an input of F10's shape (2^13 records on 1 KiB blocks,
// 96 frames, 2 ms per block) on a fresh D-disk volume inside a bubble —
// distinct random keys for the sort, sorted ones for the load — and
// returns the model time and parallel steps of one distribution sort (bulk
// false) or one bulk load (true).
func modelRun(t *testing.T, d int, bulk bool) (elapsed time.Duration, steps uint64) {
	const n = 1 << 13
	synctest.Run(func() {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 1024, MemBlocks: 96, Disks: d, DiskLatency: modelLatency})
		defer vol.Close()
		pool := pdm.PoolFor(vol)
		vs := distinctRecords(n)
		if bulk {
			for i := range vs {
				vs[i] = record.Record{Key: uint64(i + 1), Val: uint64(i)}
			}
		}
		f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		start := time.Now()
		if bulk {
			var tr *btree.Tree
			if tr, err = btree.BulkLoad(vol, pool, 8, f, &btree.BulkLoadOptions{Width: d}); err == nil {
				err = tr.Close()
			}
		} else {
			var out *stream.File[record.Record]
			if out, err = DistributionSort(f, pool, record.Record.Less, &Options{Width: d}); err == nil {
				out.Release()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		elapsed, steps = time.Since(start), vol.Stats().Snapshot().Steps
	})
	return elapsed, steps
}

// TestModelTimeDistributionSortAndBulkLoad pins F10's two workloads in
// model time: at each disk count the distribution sort and the bulk load,
// their streams opened ahead and behind, take exactly their parallel
// steps, and those steps are the counted ones.
func TestModelTimeDistributionSortAndBulkLoad(t *testing.T) {
	for _, c := range []struct {
		name  string
		d     int
		bulk  bool
		steps uint64
	}{
		{"dist", 1, false, 490}, {"dist", 4, false, 128},
		{"bulk", 1, true, 265}, {"bulk", 4, true, 70},
	} {
		elapsed, steps := modelRun(t, c.d, c.bulk)
		t.Logf("D=%d %s: %v (%d steps)", c.d, c.name, elapsed, steps)
		if steps != c.steps {
			t.Errorf("D=%d %s: %d steps, want %d", c.d, c.name, steps, c.steps)
		}
		if elapsed != time.Duration(steps)*modelLatency {
			t.Errorf("D=%d %s: took %v, want exactly %d steps × %v", c.d, c.name, elapsed, steps, modelLatency)
		}
	}
}
