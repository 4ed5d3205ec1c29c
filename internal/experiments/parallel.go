package experiments

import (
	"fmt"
	"time"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// F9ParallelEngine measures the concurrent per-disk I/O engine on a wall
// clock: the same striped scan workload at a fixed per-block service
// latency, swept over disk counts. Counted block reads stay constant while
// parallel steps and elapsed milliseconds both fall by ≈D — the parallel in
// the Parallel Disk Model made physical. A second column pair contrasts a
// synchronous scan with a forecasting (prefetching) scan whose consumer
// does per-record work, showing read-ahead overlapping compute with I/O.
//
// This is the one experiment whose currency is wall-clock time, so absolute
// numbers vary with the host. Its shape test runs it at zero latency and
// asserts the ratio across D in parallel steps; the prefetch overlap is
// asserted exactly, in model time, by internal/stream's synctest suite.
func F9ParallelEngine(n int, disks []int, latency time.Duration) (*Table, error) {
	t := &Table{
		ID:    "F9",
		Title: "concurrent engine: elapsed ms falls ×D at equal block count; prefetch overlaps compute",
		Notes: "ms ≈ ms(D=1)/D; blockReads constant; asyncMs < syncMs under per-record compute",
	}
	for _, d := range disks {
		row, err := enginePoint(n, d, latency)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, *row)
	}
	return t, nil
}

// enginePoint runs the three timed scans for one disk count, owning the
// volume (and each reader's frames) for exactly its scope.
func enginePoint(n, d int, latency time.Duration) (*Row, error) {
	cfg := pdm.Config{BlockBytes: 1024, MemBlocks: 32, Disks: d, DiskLatency: latency}
	vol, err := newVolume(cfg)
	if err != nil {
		return nil, err
	}
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	rs := RandomRecords(17, n)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, rs)
	if err != nil {
		return nil, err
	}

	// timedScan drains f through a width-w striped reader, feeding each
	// record to fn, and returns the elapsed milliseconds.
	timedScan := func(width int, fn func(record.Record)) (float64, error) {
		start := time.Now()
		r, err := stream.NewStripedReader(f, pool, width)
		if err != nil {
			return 0, err
		}
		defer r.Close()
		if err := stream.Drain[record.Record](r, func(v record.Record) error {
			fn(v)
			return nil
		}); err != nil {
			return 0, err
		}
		return float64(time.Since(start).Microseconds()) / 1000, nil
	}

	// Plain striped scan, width D: one parallel step per batch.
	vol.Stats().Reset()
	scanMs, err := timedScan(d, func(record.Record) {})
	if err != nil {
		return nil, err
	}
	scanReads := float64(vol.Stats().Reads)
	scanSteps := float64(vol.Stats().Steps)

	// Synchronous vs forecasting scan with per-record compute sized so a
	// block's worth of processing is comparable to its service latency —
	// the regime where read-ahead pays: 85 000 multiply-adds per record at
	// 2 ms, in proportion to the latency, and none at zero latency, where
	// there is no service time to overlap.
	spins := int(85000 * latency / (2 * time.Millisecond))
	work := func(rec record.Record) {
		h := rec.Key
		for i := 0; i < spins; i++ {
			h = h*2654435761 + rec.Val
		}
		_ = h
	}
	syncMs, err := timedScan(1, work)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	if err := stream.AsyncForEach(f, pool, 1, func(v record.Record) error {
		work(v)
		return nil
	}); err != nil {
		return nil, err
	}
	asyncMs := float64(time.Since(start).Microseconds()) / 1000

	return &Row{
		Label: fmt.Sprintf("D=%d", d),
		Cells: map[string]float64{
			"blockReads": scanReads,
			"scanSteps":  scanSteps,
			"scanMs":     scanMs,
			"syncMs":     syncMs,
			"asyncMs":    asyncMs,
		},
		Order: []string{"blockReads", "scanSteps", "scanMs", "syncMs", "asyncMs"},
	}, nil
}
