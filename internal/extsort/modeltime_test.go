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
// distinct random keys for the sort, sorted ones for the load — and returns the model time and parallel
// steps of one distribution sort (bulk false) or one bulk load (true). A
// fresh volume per run gives every run the same block layout, so sync and
// async differ only in their overlap.
func modelRun(t *testing.T, d int, bulk, async bool) (elapsed time.Duration, steps uint64) {
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
			if tr, err = btree.BulkLoad(vol, pool, 8, f, &btree.BulkLoadOptions{Width: d, Async: async}); err == nil {
				err = tr.Close()
			}
		} else {
			var out *stream.File[record.Record]
			if out, err = DistributionSort(f, pool, record.Record.Less, &Options{Width: d, Async: async}); err == nil {
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

// TestModelTimeAsyncNeverLoses is F10's overlap contract: at every disk
// count the distribution sort and the bulk load opened ahead and behind
// finish no later than their on-demand twins. The on-demand paths wait out
// every batch, so they take exactly their parallel steps; the overlapped
// paths take at most theirs.
func TestModelTimeAsyncNeverLoses(t *testing.T) {
	for _, d := range []int{1, 4} {
		for _, w := range []struct {
			name string
			bulk bool
		}{{"dist", false}, {"bulk", true}} {
			syncT, syncSteps := modelRun(t, d, w.bulk, false)
			asyncT, asyncSteps := modelRun(t, d, w.bulk, true)
			t.Logf("D=%d %s: sync %v (%d steps), async %v (%d steps)", d, w.name, syncT, syncSteps, asyncT, asyncSteps)
			if syncT != time.Duration(syncSteps)*modelLatency {
				t.Errorf("D=%d %s: on-demand path took %v, want exactly %d steps × %v", d, w.name, syncT, syncSteps, modelLatency)
			}
			if asyncT > time.Duration(asyncSteps)*modelLatency {
				t.Errorf("D=%d %s: overlapped path took %v, more than its %d steps × %v", d, w.name, asyncT, asyncSteps, modelLatency)
			}
			if asyncT > syncT {
				t.Errorf("D=%d %s: overlapped path took %v, on-demand %v", d, w.name, asyncT, syncT)
			}
		}
	}
}
