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
