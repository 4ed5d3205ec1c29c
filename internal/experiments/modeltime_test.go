//go:build goexperiment.synctest

package experiments

// Model time for the experiments whose gates are clocks, asserted exactly
// inside a testing/synctest bubble, where the clock moves only when every
// goroutine is blocked. Run with `make modeltime` (GOEXPERIMENT=synctest).
// `go test ./...` runs the same experiments at zero latency and gates only
// their counted cells; every clock gate is decided here. Each test runs at
// the shape test's size, at 2 ms per block and D in {1, 4}, on both
// backends: the bubble's clock counts only reservations, never the file
// system, so a pinned cell is identical on mem and file.

import (
	"math"
	"testing"
	"testing/synctest"
	"time"
)

const modelLatency = 2 * time.Millisecond

// pinCells reports every cell of r that differs from want, rounded to the
// hundredth as the pins are written.
func pinCells(t *testing.T, r Row, want map[string]float64) {
	t.Helper()
	for c, w := range want {
		if got := r.Cells[c]; math.Round(got*100)/100 != w {
			t.Errorf("%s: %s = %v, want %v", r.Label, c, got, w)
		}
	}
}

// bothBackends runs fn inside a bubble once on the memory backend and once
// with every experiment volume on files under a temporary directory, for
// the experiments that take their backend from SetVolumeDir.
func bothBackends(t *testing.T, fn func(backend string)) {
	defer SetVolumeDir("")
	for _, b := range []struct{ name, dir string }{{"mem", ""}, {"file", t.TempDir()}} {
		SetVolumeDir(b.dir)
		synctest.Run(func() { fn(b.name) })
	}
}

// TestModelTimeF10ForecastSortIndex pins F10's clocks beside the steps the
// zero-latency shape test gates. The distribution sort takes exactly its
// steps × 2 ms; the D=4 bulk load takes 71 latencies for its 72 steps:
// steps are summed per dispatch, and two dispatches in flight on disjoint
// disks share a latency.
func TestModelTimeF10ForecastSortIndex(t *testing.T) {
	want := []map[string]float64{
		{"distSteps": 488, "bulkSteps": 265, "distMs": 976, "bulkMs": 530},
		{"distSteps": 120, "bulkSteps": 72, "distMs": 240, "bulkMs": 142},
	}
	bothBackends(t, func(backend string) {
		tab, err := F10ForecastSortIndex(1<<13, []int{1, 4}, modelLatency)
		if err != nil {
			t.Error(err)
			return
		}
		for i, r := range tab.Rows {
			t.Logf("%s/%s: dist %vms (%v steps), bulk %vms (%v steps)", r.Label, backend,
				r.Cells["distMs"], r.Cells["distSteps"], r.Cells["bulkMs"], r.Cells["bulkSteps"])
			pinCells(t, r, want[i])
		}
	})
}

// TestModelTimeF11WriteBehind pins every F11 cell in model time. The
// width-1 load at D=4 books each leaf's write before it waits out the last,
// so writes in flight on different disks overlap: 276 ms for 265 steps.
func TestModelTimeF11WriteBehind(t *testing.T) {
	want := []map[string]float64{
		{"bulkSyncMs": 530, "bulkWBMs": 530, "bulkWrites": 137, "bulkWBWrites": 137, "bulkSyncSteps": 265, "bulkWBSteps": 265,
			"sortedBlocks": 128, "composedMs": 1478, "composedReads": 412, "composedWrites": 327, "composedSteps": 739,
			"fusedMs": 966, "fusedReads": 284, "fusedWrites": 199, "fusedSteps": 483},
		{"bulkSyncMs": 276, "bulkWBMs": 140, "bulkWrites": 137, "bulkWBWrites": 137, "bulkSyncSteps": 265, "bulkWBSteps": 70,
			"sortedBlocks": 128, "composedMs": 384, "composedReads": 379, "composedWrites": 344, "composedSteps": 193,
			"fusedMs": 258, "fusedReads": 251, "fusedWrites": 216, "fusedSteps": 129},
	}
	bothBackends(t, func(backend string) {
		tab, err := F11WriteBehind(1<<13, []int{1, 4}, modelLatency)
		if err != nil {
			t.Error(err)
			return
		}
		for i, r := range tab.Rows {
			t.Logf("%s/%s: bulk %vms -> %vms at width D, index %vms -> %vms fused", r.Label, backend,
				r.Cells["bulkSyncMs"], r.Cells["bulkWBMs"], r.Cells["composedMs"], r.Cells["fusedMs"])
			pinCells(t, r, want[i])
		}
	})
}

// TestModelTimeF12QueryServing decides F12's session-QPS gate — four
// sessions serve at least twice one session's QPS at D=4 — in model time,
// and pins every other clock. The D=4 qps4 cell is gated, not pinned: its
// four sessions wake at the same virtual instants, the scheduler orders
// them, and the order decides which of them books the next free disk
// (1 080–1 150 over repeated runs). At D=1 one disk serves every read
// back to back, so the order does not change the makespan.
func TestModelTimeF12QueryServing(t *testing.T) {
	synctest.Run(func() {
		tab, err := F12QueryServing(1<<13, []int{1, 4}, modelLatency)
		if err != nil {
			t.Error(err)
			return
		}
		if len(tab.Rows) != 4 {
			t.Errorf("expected 4 rows (D in {1,4} x {mem,file}), got %d", len(tab.Rows))
			return
		}
		// Rows run D=1/mem, D=1/file, D=4/mem, D=4/file.
		d1 := map[string]float64{"loopMs": 1626, "batchMs": 262, "rangeMs": 266, "scanMs": 266, "qps1": 378.79, "qps4": 379.15}
		d4 := map[string]float64{"loopMs": 1626, "batchMs": 66, "rangeMs": 266, "scanMs": 68, "qps1": 485.44}
		for i, r := range tab.Rows {
			t.Logf("%s: loop %vms, batch %vms, range %vms, scan %vms, qps %.2f -> %.2f", r.Label,
				r.Cells["loopMs"], r.Cells["batchMs"], r.Cells["rangeMs"], r.Cells["scanMs"], r.Cells["qps1"], r.Cells["qps4"])
			if i < 2 {
				pinCells(t, r, d1)
				continue
			}
			pinCells(t, r, d4)
			if r.Cells["qps4"] < 2*r.Cells["qps1"] {
				t.Errorf("%s: 4 sessions %.0f qps not >= 2x one session %.0f", r.Label, r.Cells["qps4"], r.Cells["qps1"])
			}
		}
	})
}

// TestModelTimeF13StoreOnline decides F13's clock gates in model time: at
// every point the store absorbs the updates no slower than per-key B-tree
// inserts, and F13 itself fails the run unless, at D=4, it is at least 2x
// faster and in-drain read QPS is at least half of quiesced. The per-key
// reference runs on one goroutine, so it takes exactly its I/Os × 2 ms.
// The drain phase (qpsDrain, drainReads) is gated, not pinned: reader and
// drain goroutines that wake at the same virtual instant are ordered by
// the scheduler, which decides how many reads land before the swap.
//
// The bubble can run the store only because a generation's read lock is a
// channel: a reader queued behind one sleeping out a disk read is durably
// blocked, so the clock advances. On a sync.Mutex the bubble hangs.
func TestModelTimeF13StoreOnline(t *testing.T) {
	synctest.Run(func() {
		tab, err := F13StoreOnline(1<<13, []int{1, 4}, modelLatency)
		if err != nil {
			t.Error(err)
			return
		}
		if len(tab.Rows) != 4 {
			t.Errorf("expected 4 rows (D in {1,4} x {mem,file}), got %d", len(tab.Rows))
			return
		}
		// Rows run D=1/mem, D=1/file, D=4/mem, D=4/file.
		for i, r := range tab.Rows {
			c := r.Cells
			t.Logf("%s: per-key %vms vs store %vms; qps quiesced %.2f vs in-drain %.2f (%v reads)", r.Label,
				c["btreeMs"], c["storeMs"], c["qpsQuiet"], c["qpsDrain"], c["drainReads"])
			pinCells(t, r, map[string]float64{"btreeMs": 28362, "storeMs": []float64{570, 298}[i/2],
				"btreeIOs": 14181, "storeIOs": 285, "qpsQuiet": 529.1, "drains": 3})
			if c["btreeMs"] != c["btreeIOs"]*float64(modelLatency/time.Millisecond) {
				t.Errorf("%s: per-key inserts took %vms, want exactly %v I/Os × %v", r.Label, c["btreeMs"], c["btreeIOs"], modelLatency)
			}
			if c["storeMs"] > c["btreeMs"] {
				t.Errorf("%s: store %vms slower than per-key inserts %vms", r.Label, c["storeMs"], c["btreeMs"])
			}
		}
	})
}

// TestModelTimeF14ShardedServing runs F14 at 2 ms per block in a bubble, so
// its S=4 batch-QPS gate — a clock gate the zero-latency shape test cannot
// reach — is decided on model time, and pins every timed cell to the
// microsecond. The cells are identical on both backends: the bubble's clock
// counts only reservations, never the file system.
func TestModelTimeF14ShardedServing(t *testing.T) {
	synctest.Run(func() {
		tab, err := F14ShardedServing(1<<12, []int{1, 4}, modelLatency)
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
