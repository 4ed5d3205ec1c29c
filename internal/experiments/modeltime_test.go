//go:build goexperiment.synctest

package experiments

// Model time for the experiments whose gates are clocks, asserted exactly
// inside a testing/synctest bubble, where the clock moves only when every
// goroutine is blocked. Run with `make modeltime` (GOEXPERIMENT=synctest).

import (
	"math"
	"testing"
	"testing/synctest"
	"time"
)

// TestModelTimeF14ShardedServing runs F14 at 2 ms per block in a bubble, so
// its S=4 batch-QPS gate — a clock gate the zero-latency shape test cannot
// reach — is decided on model time, and pins every timed cell to the
// microsecond. The cells are identical on both backends: the bubble's clock
// counts only reservations, never the file system.
func TestModelTimeF14ShardedServing(t *testing.T) {
	synctest.Run(func() {
		tab, err := F14ShardedServing(1<<12, []int{1, 4}, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 4 {
			t.Fatalf("expected 4 rows (S in {1,4} x {mem,file}), got %d", len(tab.Rows))
		}
		// Rows run S=1/mem, S=1/file, S=4/mem, S=4/file. Four shards serve
		// the batch rounds 204/54 ≈ 3.8× faster; the stitched scan reads the
		// shards one after another, so more shards do not speed it up.
		want := []struct{ batchMs, scanMs, batchQps float64 }{
			{204, 68, 14706}, {204, 68, 14706}, {54, 72, 55556}, {54, 72, 55556},
		}
		for i, r := range tab.Rows {
			t.Logf("%s: batch %.3fms (%.0f qps), scan %.3fms", r.Label, r.Cells["batchMs"], r.Cells["batchQps"], r.Cells["scanMs"])
			w := want[i]
			if r.Cells["batchMs"] != w.batchMs || r.Cells["scanMs"] != w.scanMs || math.Round(r.Cells["batchQps"]) != w.batchQps {
				t.Errorf("%s: batch %vms (%.0f qps), scan %vms; want batch %vms (%.0f qps), scan %vms",
					r.Label, r.Cells["batchMs"], r.Cells["batchQps"], r.Cells["scanMs"], w.batchMs, w.batchQps, w.scanMs)
			}
		}
	})
}
