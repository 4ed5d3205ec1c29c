package experiments

import (
	"fmt"
	"time"

	"em/internal/btree"
	"em/internal/extsort"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// F10ForecastSortIndex measures forecasting beyond the merge path: the
// synchronous and asynchronous distribution sort and B-tree bulk load on a
// latency volume with a fixed per-block service latency, swept over
// disk counts. Each workload reports its parallel steps — the model's wall
// clock, counted exactly: they fall with D as width-D striping spreads each
// batch over the disks — and its measured elapsed milliseconds, where
// read-ahead / write-behind also overlap partition reads with bucket writes
// (sort) and input reads with node write-backs (bulk load).
//
// The shape test gates the D=4 async vs D=1 sync speedup on the step
// columns; the clocks vary with the host and are only logged. That async
// never loses to sync at equal D is asserted in model time, exactly, by
// extsort's synctest suite (`make modeltime`).
func F10ForecastSortIndex(n int, disks []int, latency time.Duration) (*Table, error) {
	t := &Table{
		ID:    "F10",
		Title: "forecasting beyond merge: async distribution sort and bulk load vs their sync paths across D",
		Notes: "D=4 async takes >= 1.5x fewer steps than D=1 sync for both workloads; clocks fall with D",
	}
	for _, d := range disks {
		row, err := forecastPoint(n, d, latency)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, *row)
	}
	return t, nil
}

// forecastPoint runs the four timed workloads for one disk count, owning the
// volume for exactly its scope.
func forecastPoint(n, d int, latency time.Duration) (*Row, error) {
	// Memory is sized so the halved async fan-out still partitions in the
	// same number of levels as the synchronous path across the D sweep;
	// with a too-small M the async run pays extra passes (its fan-out is
	// half), which is the documented trade, not the overlap under test.
	cfg := pdm.Config{BlockBytes: 1024, MemBlocks: 96, Disks: d, DiskLatency: latency}
	vol, err := newVolume(cfg)
	if err != nil {
		return nil, err
	}
	defer vol.Close()
	pool := pdm.PoolFor(vol)

	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, RandomRecords(23, n))
	if err != nil {
		return nil, err
	}
	// timed runs fn from a zeroed counter, returning its elapsed
	// milliseconds and parallel steps.
	timed := func(fn func() error) (ms, steps float64, err error) {
		vol.Stats().Reset()
		start := time.Now()
		err = fn()
		ms = float64(time.Since(start).Microseconds()) / 1000
		return ms, float64(vol.Stats().Snapshot().Steps), err
	}
	timeDist := func(async bool) (float64, float64, error) {
		return timed(func() error {
			out, err := extsort.DistributionSort(f, pool, record.Record.Less, &extsort.Options{Width: d, Async: async})
			if err != nil {
				return err
			}
			out.Release()
			return nil
		})
	}
	distSyncMs, distSyncSteps, err := timeDist(false)
	if err != nil {
		return nil, err
	}
	distAsyncMs, distAsyncSteps, err := timeDist(true)
	if err != nil {
		return nil, err
	}

	sorted := make([]record.Record, n)
	for i := range sorted {
		sorted[i] = record.Record{Key: uint64(i + 1), Val: uint64(i)}
	}
	sf, err := stream.FromSlice(vol, pool, record.RecordCodec{}, sorted)
	if err != nil {
		return nil, err
	}
	timeBulk := func(async bool) (float64, float64, error) {
		return timed(func() error {
			tr, err := btree.BulkLoad(vol, pool, 8, sf, &btree.BulkLoadOptions{Width: d, Async: async})
			if err != nil {
				return err
			}
			return tr.Close()
		})
	}
	bulkSyncMs, bulkSyncSteps, err := timeBulk(false)
	if err != nil {
		return nil, err
	}
	bulkAsyncMs, bulkAsyncSteps, err := timeBulk(true)
	if err != nil {
		return nil, err
	}

	return &Row{
		Label: fmt.Sprintf("D=%d", d),
		Cells: map[string]float64{
			"distSyncSteps":  distSyncSteps,
			"distAsyncSteps": distAsyncSteps,
			"bulkSyncSteps":  bulkSyncSteps,
			"bulkAsyncSteps": bulkAsyncSteps,
			"distSyncMs":     distSyncMs,
			"distAsyncMs":    distAsyncMs,
			"bulkSyncMs":     bulkSyncMs,
			"bulkAsyncMs":    bulkAsyncMs,
		},
		Order: []string{"distSyncSteps", "distAsyncSteps", "bulkSyncSteps", "bulkAsyncSteps",
			"distSyncMs", "distAsyncMs", "bulkSyncMs", "bulkAsyncMs"},
	}, nil
}
