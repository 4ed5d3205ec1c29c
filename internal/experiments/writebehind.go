package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"em/internal/btree"
	"em/internal/extsort"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// F11WriteBehind measures the write side of index construction on a
// latency volume, swept over disk counts. The bulk loader streams its
// leaves out write-behind, Width at a time through BatchWriteAsync: the
// width-1 load (bulkSync) writes one leaf per step while the other D-1
// disks idle, and the width-D load (bulkWB) moves D blocks per step in both
// directions. The same point then builds an index
// from unsorted input twice: composed, as DistributionSort writing the
// sorted file and BulkLoad reading it back, and fused, as SortIndex, whose
// sort emits its base cases straight into the loader.
//
// Both loads issue exactly the same write I/Os (bulkWrites vs
// bulkWBWrites), and the fused build issues exactly the composed build's
// transfers less the sorted file, written once and read once
// (2·sortedBlocks); both are asserted by the shape test on the counted
// columns, together with fused steps strictly below composed and the D=4
// width-4 load's steps against the D=1 width-1 load's, at zero latency.
// The wall clock columns vary with the host; TestModelTimeF11WriteBehind
// pins them in model time (`make modeltime`).
func F11WriteBehind(n int, disks []int, latency time.Duration) (*Table, error) {
	t := &Table{
		ID:    "F11",
		Title: "width-D write-behind bulk load vs width 1, and the fused sort→index build vs sort then load, across D",
		Notes: "write I/Os identical; D=4 width-4 load takes >= 2.5x fewer steps than D=1 width 1; fused = composed − 2·sortedBlocks I/Os, fewer steps",
	}
	for _, d := range disks {
		row, err := writeBehindPoint(n, d, latency)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, *row)
	}
	return t, nil
}

// writeBehindPoint runs the four timed workloads for one disk count, owning
// the volume for exactly its scope.
func writeBehindPoint(n, d int, latency time.Duration) (*Row, error) {
	// The pool grows by exactly SortIndex's reserved loader budget (8 cache
	// frames + 2×D leaf frames), so the fused sort keeps F10's 96 frames —
	// and the same fan-out and pass structure — at every point of the D
	// sweep instead of starving at high D.
	cfg := pdm.Config{BlockBytes: 1024, MemBlocks: 96 + 8 + 2*d, Disks: d, DiskLatency: latency}
	vol, err := newVolume(cfg)
	if err != nil {
		return nil, err
	}
	defer vol.Close()
	pool := pdm.PoolFor(vol)

	sorted := make([]record.Record, n)
	for i := range sorted {
		sorted[i] = record.Record{Key: uint64(i + 1), Val: uint64(i)}
	}
	sf, err := stream.FromSlice(vol, pool, record.RecordCodec{}, sorted)
	if err != nil {
		return nil, err
	}
	timeBulk := func(opts *btree.BulkLoadOptions) (float64, pdm.Stats, error) {
		vol.Stats().Reset()
		start := time.Now()
		tr, err := btree.BulkLoad(vol, pool, 8, sf, opts)
		if err != nil {
			return 0, pdm.Stats{}, err
		}
		if err := tr.Close(); err != nil {
			return 0, pdm.Stats{}, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		return ms, vol.Stats().Snapshot(), nil
	}
	bulkSyncMs, bulkSync, err := timeBulk(nil)
	if err != nil {
		return nil, err
	}
	bulkWBMs, bulkWB, err := timeBulk(&btree.BulkLoadOptions{Width: d})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(0xF11))
	random := make([]record.Record, n)
	for i, k := range rng.Perm(n) {
		random[i] = record.Record{Key: uint64(k + 1), Val: uint64(i)}
	}
	rf, err := stream.FromSlice(vol, pool, record.RecordCodec{}, random)
	if err != nil {
		return nil, err
	}
	// Both builds are timed to a closed tree, every node on the volume.
	build := func(fn func() (*btree.Tree, error)) (float64, pdm.Stats, error) {
		vol.Stats().Reset()
		start := time.Now()
		tr, err := fn()
		if err == nil {
			err = tr.Close()
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		return ms, vol.Stats().Snapshot(), err
	}
	var sortedBlocks int
	composedMs, composed, err := build(func() (*btree.Tree, error) {
		// Holding the loader's 8 cache frames back during the sort leaves it
		// the free frames the fused sort sees: the output writer's 2×D
		// frames stand in for the loader's leaf double buffer. Both sorts
		// then split identically and differ only in the sorted file.
		held, err := pool.AllocN(8)
		if err != nil {
			return nil, err
		}
		sorted, err := extsort.DistributionSort(rf, pool, record.Record.Less, &extsort.Options{Width: d})
		pdm.ReleaseAll(held)
		if err != nil {
			return nil, err
		}
		defer sorted.Release()
		sortedBlocks = sorted.Blocks()
		return btree.BulkLoad(vol, pool, 8, sorted, &btree.BulkLoadOptions{Width: d})
	})
	if err != nil {
		return nil, err
	}
	fusedMs, fused, err := build(func() (*btree.Tree, error) {
		return extsort.SortIndex(rf, pool, 8, &extsort.Options{Width: d})
	})
	if err != nil {
		return nil, err
	}

	return &Row{
		Label: fmt.Sprintf("D=%d", d),
		Cells: map[string]float64{
			"bulkSyncMs":     bulkSyncMs,
			"bulkWBMs":       bulkWBMs,
			"bulkWrites":     float64(bulkSync.Writes),
			"bulkWBWrites":   float64(bulkWB.Writes),
			"bulkSyncSteps":  float64(bulkSync.Steps),
			"bulkWBSteps":    float64(bulkWB.Steps),
			"sortedBlocks":   float64(sortedBlocks),
			"composedMs":     composedMs,
			"composedReads":  float64(composed.Reads),
			"composedWrites": float64(composed.Writes),
			"composedSteps":  float64(composed.Steps),
			"fusedMs":        fusedMs,
			"fusedReads":     float64(fused.Reads),
			"fusedWrites":    float64(fused.Writes),
			"fusedSteps":     float64(fused.Steps),
		},
		Order: []string{"bulkSyncMs", "bulkWBMs", "bulkWrites", "bulkWBWrites", "bulkSyncSteps", "bulkWBSteps", "sortedBlocks",
			"composedMs", "composedReads", "composedWrites", "composedSteps",
			"fusedMs", "fusedReads", "fusedWrites", "fusedSteps"},
	}, nil
}
