package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// F12QueryServing measures the read-serving side of the index — the
// workload a built tree actually exists for — on a latency volume, swept
// over disk counts with every point taken on both storage backends (the
// in-memory simulation and real per-disk files, regardless of -dir):
//
//   - batched point lookups: a 1k-key batch through Tree.GetBatch against a
//     loop of Tree.Get — the batch shares its upper-level node reads
//     (counted reads strictly fewer) and fetches each level's distinct
//     nodes D at a time (wall clock divided by up to D on top of that);
//   - prefetched range scans: a full scan through the forecasting Scanner
//     against the synchronous Range, at identical counted reads — internal
//     nodes are resident (Warm) and the scanner takes its upcoming leaf
//     addresses from them, keeping D sibling reads in flight;
//   - concurrent read sessions: QPS of a mixed point/range workload served
//     by 1 vs 4 sessions on their own goroutines, each with a private
//     reserved cache budget, scaling toward D as the per-disk engine
//     overlaps their transfers.
//
// Unlike the earlier timing experiments, F12 enforces its acceptance gates
// itself at the D=4 points — batch >= 2.5x fewer parallel steps at
// strictly fewer reads, prefetched scan >= 2x fewer steps at identical
// reads, 4 sessions >= 2x QPS of 1 on the file backend — and returns an
// error when one fails, so cmd/embench exits non-zero and CI can gate on
// the sweep. The batch and scan gates count Stats.Steps, which the model's
// wall clock is proportional to, so they do not flake on a loaded host; the
// clock columns are reported beside them.
func F12QueryServing(n int, disks []int, latency time.Duration) (*Table, error) {
	t := &Table{
		ID:    "F12",
		Title: "query serving: batched lookups, prefetched scans, and concurrent sessions vs one-at-a-time",
		Notes: "gates at D=4: batch >= 2.5x fewer steps with reads strictly fewer; scan >= 2x fewer steps at identical reads; 4 sessions >= 2x QPS (file)",
	}
	for _, d := range disks {
		for _, backend := range []string{"mem", "file"} {
			row, err := queryPoint(n, d, latency, backend)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, *row)
			if d != 4 {
				continue
			}
			c := row.Cells
			if c["batchSteps"]*2.5 > c["loopSteps"] {
				return nil, fmt.Errorf("F12 %s gate: GetBatch %.0f steps not >= 2.5x fewer than Get loop %.0f",
					row.Label, c["batchSteps"], c["loopSteps"])
			}
			if c["batchReads"] >= c["loopReads"] {
				return nil, fmt.Errorf("F12 %s gate: GetBatch %0.f reads not strictly below loop %0.f",
					row.Label, c["batchReads"], c["loopReads"])
			}
			if c["scanSteps"]*2 > c["rangeSteps"] {
				return nil, fmt.Errorf("F12 %s gate: prefetched scan %.0f steps not >= 2x fewer than Range %.0f",
					row.Label, c["scanSteps"], c["rangeSteps"])
			}
			if c["scanReads"] != c["rangeReads"] {
				return nil, fmt.Errorf("F12 %s gate: scan %0.f reads != Range %0.f",
					row.Label, c["scanReads"], c["rangeReads"])
			}
			if backend == "file" && c["qps4"] < 2*c["qps1"] {
				return nil, fmt.Errorf("F12 %s gate: 4 sessions %.0f qps not >= 2x one session %.0f",
					row.Label, c["qps4"], c["qps1"])
			}
		}
	}
	return t, nil
}

// queryPoint runs the serving workloads for one (disks, backend)
// coordinate, owning its volume — and, on the file backend, its directory —
// for exactly its scope.
func queryPoint(n, d int, latency time.Duration, backend string) (*Row, error) {
	cfg := pdm.Config{BlockBytes: 1024, MemBlocks: 256, Disks: d, DiskLatency: latency}
	if backend == "file" {
		dir, err := os.MkdirTemp("", "emF12")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	vol, err := pdm.NewVolume(cfg)
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
	tr, err := btree.BulkLoad(vol, pool, 16, sf, &btree.BulkLoadOptions{Width: d})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	// The serving posture: internal levels resident and clean, leaves on
	// disk. Rehome flushes the internals still dirty from construction, so
	// no timed window below pays a write-back the other side would not;
	// the scans then run first — the scanner's leaf reads bypass the
	// cache, so the warm fan-out and cold leaves both comparisons see are
	// identical.
	if err := tr.Rehome(pool, 16); err != nil {
		return nil, err
	}
	if err := tr.Warm(); err != nil {
		return nil, err
	}

	full := ^uint64(0)
	vol.Stats().Reset()
	start := time.Now()
	cnt := 0
	if err := tr.RangePrefetch(pool, 0, full, nil, func(k, v uint64) error { cnt++; return nil }); err != nil {
		return nil, err
	}
	scanMs := msSince(start)
	scan := vol.Stats().Snapshot()
	if cnt != n {
		return nil, fmt.Errorf("F12: prefetched scan returned %d of %d records", cnt, n)
	}

	vol.Stats().Reset()
	start = time.Now()
	cnt = 0
	if err := tr.Range(0, full, func(k, v uint64) error { cnt++; return nil }); err != nil {
		return nil, err
	}
	rangeMs := msSince(start)
	ranged := vol.Stats().Snapshot()
	if cnt != n {
		return nil, fmt.Errorf("F12: Range returned %d of %d records", cnt, n)
	}

	// A 1k-key point batch, ~1/8 misses, against the one-at-a-time loop.
	// Range's leaf stream just washed the warmed fan-out out of the cache;
	// re-adopt the serving posture so both point paths start from resident
	// internals, as documented.
	if err := tr.Warm(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(0xF12))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(n+n/8) + 1)
	}
	vol.Stats().Reset()
	start = time.Now()
	loopVals := make([]uint64, len(keys))
	loopFound := make([]bool, len(keys))
	for i, k := range keys {
		v, ok, err := tr.Get(k)
		if err != nil {
			return nil, err
		}
		loopVals[i], loopFound[i] = v, ok
	}
	loopMs := msSince(start)
	loop := vol.Stats().Snapshot()

	vol.Stats().Reset()
	start = time.Now()
	vals, found, err := tr.GetBatch(keys)
	if err != nil {
		return nil, err
	}
	batchMs := msSince(start)
	batch := vol.Stats().Snapshot()
	for i := range keys {
		if vals[i] != loopVals[i] || found[i] != loopFound[i] {
			return nil, fmt.Errorf("F12: GetBatch disagrees with Get on key %d", keys[i])
		}
	}

	qps1, err := sessionQPS(tr, pool, d, n, 1)
	if err != nil {
		return nil, err
	}
	qps4, err := sessionQPS(tr, pool, d, n, 4)
	if err != nil {
		return nil, err
	}

	return &Row{
		Label: fmt.Sprintf("D=%d/%s", d, backend),
		Cells: map[string]float64{
			"loopMs": loopMs, "batchMs": batchMs,
			"loopReads": float64(loop.Reads), "batchReads": float64(batch.Reads),
			"loopSteps": float64(loop.Steps), "batchSteps": float64(batch.Steps),
			"rangeMs": rangeMs, "scanMs": scanMs,
			"rangeReads": float64(ranged.Reads), "scanReads": float64(scan.Reads),
			"rangeSteps": float64(ranged.Steps), "scanSteps": float64(scan.Steps),
			"qps1": qps1, "qps4": qps4,
		},
		Order: []string{"loopMs", "batchMs", "loopReads", "batchReads", "loopSteps", "batchSteps",
			"rangeMs", "scanMs", "rangeReads", "scanReads", "rangeSteps", "scanSteps", "qps1", "qps4"},
	}, nil
}

// sessionQPS serves a fixed mixed workload — 90% point lookups, 10% short
// range scans — from g concurrent read sessions and reports total queries
// per second. Each session owns a goroutine, a private reserved cache, and
// a deterministic key stream.
func sessionQPS(tr *btree.Tree, pool *pdm.Pool, d, n, g int) (float64, error) {
	const opsPerSession = 200
	sessions := make([]*btree.Session, g)
	for i := range sessions {
		s, err := tr.NewSessionOn(pool, 12, d)
		if err != nil {
			return 0, err
		}
		sessions[i] = s
		// Serving posture per session: fan-out resident before the clock
		// starts, so the measured QPS is leaf-bound like a warmed server's.
		if err := s.Warm(); err != nil {
			return 0, err
		}
	}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	errs := make([]error, g)
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *btree.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000*g + i)))
			for j := 0; j < opsPerSession; j++ {
				k := uint64(rng.Intn(n) + 1)
				if j%10 == 9 {
					sc, err := s.NewScanner(k, k+256, nil)
					if err != nil {
						errs[i] = err
						return
					}
					err = stream.Drain[record.Record](sc, func(record.Record) error { return nil })
					sc.Close()
					if err != nil {
						errs[i] = err
						return
					}
					continue
				}
				if _, ok, err := s.Get(k); err != nil || !ok {
					errs[i] = fmt.Errorf("F12 session get(%d): ok=%v err=%v", k, ok, err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	sec := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(g*opsPerSession) / sec, nil
}

// msSince is the experiments' wall-clock unit.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
