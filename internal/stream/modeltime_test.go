//go:build goexperiment.synctest

package stream

// Model time for a scan whose consumer computes, asserted exactly inside a
// testing/synctest bubble, where the clock moves only when every goroutine
// is blocked: a block read lasts exactly its service time and the
// consumer's per-block compute is a virtual sleep of a fixed length. Run
// with `make modeltime` (GOEXPERIMENT=synctest).

import (
	"testing"
	"testing/synctest"
	"time"

	"em/internal/pdm"
	"em/internal/record"
)

const modelLatency = 2 * time.Millisecond

// modelScan writes n records to a fresh D-disk volume of 1 KiB blocks
// inside a bubble and scans them through a width-1 reader, on demand or
// reading ahead, with a consumer that computes for compute per block —
// experiment F9's prefetch columns. It returns the scan's model time, the
// file's blocks and the scan's parallel steps.
func modelScan(t *testing.T, d, n int, compute time.Duration, ahead bool) (elapsed time.Duration, blocks int, steps uint64) {
	synctest.Run(func() {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 1024, MemBlocks: 32, Disks: d, DiskLatency: modelLatency})
		defer vol.Close()
		pool := pdm.PoolFor(vol)
		vs := make([]record.Record, n)
		for i := range vs {
			vs[i] = record.Record{Key: uint64(i), Val: uint64(i)}
		}
		f, err := FromSlice(vol, pool, record.RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		start := time.Now()
		r, err := newReader(f, pool, 1, ahead)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		i := 0
		if err := Drain[record.Record](r, func(record.Record) error {
			if i++; i%f.PerBlock() == 0 || i == n {
				time.Sleep(compute)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		elapsed, blocks, steps = time.Since(start), f.Blocks(), vol.Stats().Snapshot().Steps
	})
	return elapsed, blocks, steps
}

// TestModelTimePrefetchOverlapsCompute is F9's prefetch contract, exact:
// the on-demand scan alternates a block's read with its compute, so it
// takes its parallel steps plus every block's compute; the scan reading
// ahead fetches the next block while the current one is consumed, so with
// compute as long as a read it finishes one block's compute after its
// reads — never after the on-demand scan, and here almost twice as fast.
func TestModelTimePrefetchOverlapsCompute(t *testing.T) {
	const n = 1 << 11
	for _, d := range []int{1, 4} {
		syncT, blocks, syncSteps := modelScan(t, d, n, modelLatency, false)
		asyncT, _, asyncSteps := modelScan(t, d, n, modelLatency, true)
		t.Logf("D=%d: on demand %v (%d steps), ahead %v (%d steps), %d blocks", d, syncT, syncSteps, asyncT, asyncSteps, blocks)
		if syncSteps != asyncSteps {
			t.Errorf("D=%d: on demand %d steps, ahead %d", d, syncSteps, asyncSteps)
		}
		if want := time.Duration(syncSteps)*modelLatency + time.Duration(blocks)*modelLatency; syncT != want {
			t.Errorf("D=%d: on-demand scan took %v, want exactly %d steps + %d computes = %v", d, syncT, syncSteps, blocks, want)
		}
		if want := time.Duration(asyncSteps)*modelLatency + modelLatency; asyncT != want {
			t.Errorf("D=%d: scan reading ahead took %v, want exactly %d steps + one compute = %v", d, asyncT, asyncSteps, want)
		}
		if asyncT > syncT {
			t.Errorf("D=%d: scan reading ahead took %v, on demand %v", d, asyncT, syncT)
		}
	}
}
