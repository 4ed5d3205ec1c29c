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

// modelScan writes n records to a fresh D-disk volume of 1 KiB blocks and
// scans them through a width-1 reader, on demand or reading ahead, with a
// consumer that computes for compute per block — experiment F9's prefetch
// columns. It returns the scan's model time, the file's blocks and the
// scan's parallel steps. Call it inside a bubble.
func modelScan(t *testing.T, d, n int, compute time.Duration, ahead bool) (elapsed time.Duration, blocks int, steps uint64) {
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
	r, err := newReader(f, pool, 1, depthOf(ahead))
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
	return time.Since(start), f.Blocks(), vol.Stats().Snapshot().Steps
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
		synctest.Run(func() {
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
		})
	}
}

// TestModelTimeWriterBooksAhead: a writer opened behind dispatches each full
// group before it sleeps out the flush still in flight, so the disks never
// idle between batches. With D=2 and width 2 every batch is one parallel
// step; an observer reading the counters at (k+½)·L, while batch k is in
// service, must find batch k+1's writes already charged — 2(k+2) of them,
// not the 2(k+1) of a writer that dispatched only once its wait returned.
// Booking early never changes when a batch lands, so Close still returns at
// exactly Steps × L.
func TestModelTimeWriterBooksAhead(t *testing.T) {
	const blocks = 20
	synctest.Run(func() {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 1024, MemBlocks: 32, Disks: 2, DiskLatency: modelLatency})
		defer vol.Close()
		pool := pdm.PoolFor(vol)
		f := NewFile[record.Record](vol, record.RecordCodec{})
		n := blocks * f.PerBlock()

		start := time.Now()
		done, result := make(chan struct{}), make(chan []uint64)
		go func() {
			var seen []uint64
			for time.Sleep(modelLatency / 2); ; time.Sleep(modelLatency) {
				select {
				case <-done:
					result <- seen
					return
				default:
				}
				seen = append(seen, vol.Stats().Snapshot().Writes)
			}
		}()
		w, err := OpenSink(f, pool, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := w.Append(record.Record{Key: uint64(i), Val: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		elapsed, s := time.Since(start), vol.Stats().Snapshot()
		close(done)
		seen := <-result

		t.Logf("%d writes in %d steps, %v; writes at (k+½)L: %v", s.Writes, s.Steps, elapsed, seen)
		if s.Writes != blocks {
			t.Fatalf("wrote %d blocks, want %d", s.Writes, blocks)
		}
		if want := blocks / 2 * modelLatency; elapsed != want || elapsed != time.Duration(s.Steps)*modelLatency {
			t.Errorf("Close returned at %v after %d steps, want exactly %v = %d steps × %v", elapsed, s.Steps, want, blocks/2, modelLatency)
		}
		if uint64(len(seen)) != s.Steps {
			t.Fatalf("observer sampled %d times over %d steps", len(seen), s.Steps)
		}
		for k, got := range seen {
			if want := min(2*uint64(k+2), s.Writes); got != want {
				t.Errorf("at (%d+½)L the writer had charged %d writes, want %d: batch %d not booked behind batch %d", k, got, want, k+1, k)
			}
		}
	})
}
