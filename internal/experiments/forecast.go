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
// distribution sort and B-tree bulk load, their streams read ahead and
// written behind wherever their plan holds the second group, on a latency
// volume with a fixed per-block service latency, swept over disk counts.
// Each workload reports its parallel steps — the model's wall clock,
// counted exactly: they fall with D as width-D striping spreads each batch
// over the disks — and its measured elapsed milliseconds, where read-ahead
// / write-behind also overlap partition reads with bucket writes (sort) and
// input reads with node write-backs (bulk load).
//
// The shape test gates the D=4 vs D=1 speedup on the step columns; the
// clocks vary with the host and are only logged. That both workloads take
// exactly their steps in model time is asserted by extsort's synctest
// suite (`make modeltime`).
func F10ForecastSortIndex(n int, disks []int, latency time.Duration) (*Table, error) {
	t := &Table{
		ID:    "F10",
		Title: "forecasting beyond merge: distribution sort and bulk load read ahead and write behind across D",
		Notes: "D=4 takes >= 1.5x fewer steps than D=1 for both workloads; clocks fall with D",
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

// forecastPoint runs the two timed workloads for one disk count, owning the
// volume for exactly its scope.
func forecastPoint(n, d int, latency time.Duration) (*Row, error) {
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
	distMs, distSteps, err := timed(func() error {
		out, err := extsort.DistributionSort(f, pool, record.Record.Less, &extsort.Options{Width: d})
		if err != nil {
			return err
		}
		out.Release()
		return nil
	})
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
	bulkMs, bulkSteps, err := timed(func() error {
		tr, err := btree.BulkLoad(vol, pool, 8, sf, &btree.BulkLoadOptions{Width: d})
		if err != nil {
			return err
		}
		return tr.Close()
	})
	if err != nil {
		return nil, err
	}

	return &Row{
		Label: fmt.Sprintf("D=%d", d),
		Cells: map[string]float64{
			"distSteps": distSteps,
			"bulkSteps": bulkSteps,
			"distMs":    distMs,
			"bulkMs":    bulkMs,
		},
		Order: []string{"distSteps", "bulkSteps", "distMs", "bulkMs"},
	}, nil
}
