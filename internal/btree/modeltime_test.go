//go:build goexperiment.synctest

package btree

// Model time for the bulk loader, asserted exactly inside a testing/synctest
// bubble, where the clock moves only when every goroutine is blocked. Run
// with `make modeltime` (GOEXPERIMENT=synctest).

import (
	"testing"
	"testing/synctest"
	"time"

	"em/internal/pdm"
	"em/internal/record"
)

// TestModelTimeLoaderCloseWaitsLastBatch: a write-behind load costs exactly
// its leaf batches' parallel steps. Each dispatch waits out the batch before
// it, and Close waits out the last one, so Close returns at Steps ×
// DiskLatency — one step later than a Close that skipped its final wait.
// The cache holds every internal node, so Close writes nothing else and no
// node queues behind the last leaf batch to hide a skipped wait.
func TestModelTimeLoaderCloseWaitsLastBatch(t *testing.T) {
	const (
		latency = 2 * time.Millisecond
		records = 2000
	)
	synctest.Run(func() {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 64, Disks: 4, DiskLatency: latency})
		defer vol.Close()
		start := time.Now()
		l, err := NewLoader(vol, pdm.PoolFor(vol), 32, &BulkLoadOptions{Width: 4})
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= records; k++ {
			if err := l.Append(record.Record{Key: k, Val: k}); err != nil {
				l.Abort()
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		elapsed, steps := time.Since(start), vol.Stats().Steps
		if want := 36 * latency; elapsed != want || elapsed != time.Duration(steps)*latency {
			t.Errorf("Close returned at %v after %d steps, want exactly %v = 36 steps × %v", elapsed, steps, want, latency)
		}
		if err := l.Tree().Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestModelTimeScanBooksAhead: a prefetched scan books each forecast group
// on the disks before it sleeps out the group it is about to read, so the
// disks never idle between groups. With D=2, Width 2 and warm internals
// the 43 leaves go out as 22 groups of one parallel step each; an observer reading the counters at
// (k+½)·L, while group k is in service, must find group k+1's reads
// already charged — 2(k+2) of them, not the 2(k+1) of a scanner that
// dispatched only once its wait returned. Booking early never changes when
// a group arrives, so the scan still ends at exactly Steps × L.
func TestModelTimeScanBooksAhead(t *testing.T) {
	const (
		latency = 2 * time.Millisecond
		records = 600
	)
	synctest.Run(func() {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 96, Disks: 2, DiskLatency: latency})
		defer vol.Close()
		pool := pdm.PoolFor(vol)
		tr := bulkTree(t, vol, pool, records, &BulkLoadOptions{Width: 2})
		defer tr.Close()
		if err := tr.Rehome(pool, 16); err != nil {
			t.Fatal(err)
		}
		if err := tr.Warm(); err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()

		start := time.Now()
		done, result := make(chan struct{}), make(chan []uint64)
		go func() {
			var seen []uint64
			for time.Sleep(latency / 2); ; time.Sleep(latency) {
				select {
				case <-done:
					result <- seen
					return
				default:
				}
				seen = append(seen, vol.Stats().Snapshot().Reads)
			}
		}()
		sc, err := tr.NewScanner(pool, 0, ^uint64(0), &ScanOptions{Width: 2})
		if err != nil {
			t.Fatal(err)
		}
		if ks, _ := scanAll(t, sc); len(ks) != records {
			t.Fatalf("scan returned %d of %d records", len(ks), records)
		}
		elapsed, s := time.Since(start), vol.Stats().Snapshot()
		close(done)
		seen := <-result

		t.Logf("%d reads in %d steps, %v; reads at (k+½)L: %v", s.Reads, s.Steps, elapsed, seen)
		if want := 22 * latency; elapsed != want || elapsed != time.Duration(s.Steps)*latency {
			t.Errorf("scan ended at %v after %d steps, want exactly %v = 22 steps × %v", elapsed, s.Steps, want, latency)
		}
		if uint64(len(seen)) != s.Steps {
			t.Fatalf("observer sampled %d times over %d steps", len(seen), s.Steps)
		}
		for k, got := range seen {
			if want := min(2*uint64(k+2), s.Reads); got != want {
				t.Errorf("at (%d+½)L the scan had charged %d reads, want %d: group %d not booked behind group %d", k, got, want, k+1, k)
			}
		}
	})
}
