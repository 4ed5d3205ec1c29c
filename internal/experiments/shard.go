package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"time"

	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/shard"
	"em/internal/stream"
)

// F14ShardedServing measures the sharded serving facade — S independent
// volumes range-partitioned behind one index — against the single-volume
// layout, with every point taken on both storage backends:
//
//   - batched point lookups: rounds of a 1k-key batch through the sharded
//     GetBatch, whose merge cut fans per-shard sub-batches out concurrently
//     — S shards bring S volumes' disks to bear, so QPS scales toward S
//     while counted reads stay within S times the single layout's (each
//     shard's tree is at most as tall, but every shard pays its own root);
//   - stitched scans: one full-keyspace Scan through the concatenating
//     cross-shard Scanner, at leaf-bound reads on every layout.
//
// Like F12 and F13, F14 enforces its acceptance gates itself — S=4 batch
// QPS >= 2x S=1 on the file backend, S=4 reads within 4x of S=1 on both
// backends for batch and scan, and, the facade's defining invariant, the
// aggregated per-shard Stats byte-identical between the memory and file
// backends at every S — and returns an error when one fails, so
// cmd/embench exits non-zero and CI can gate on the sweep. The QPS gate is
// a clock gate and needs a latency to measure: at zero latency F14 checks
// its counted gates alone.
func F14ShardedServing(n int, shardCounts []int, latency time.Duration) (*Table, error) {
	t := &Table{
		ID:    "F14",
		Title: "sharded serving: merge-cut batches and stitched scans across S volumes vs one",
		Notes: "gates: S=4 batch QPS >= 2x S=1 (file); S=4 reads <= 4x S=1; aggregated stats byte-identical mem vs file",
	}
	type point struct {
		s       int
		backend string
	}
	stats := map[point]pdm.Stats{}
	rows := map[point]*Row{}
	for _, s := range shardCounts {
		for _, backend := range []string{"mem", "file"} {
			row, snap, err := shardedPoint(n, s, latency, backend)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, *row)
			stats[point{s, backend}] = snap
			rows[point{s, backend}] = row
		}
		if !reflect.DeepEqual(stats[point{s, "mem"}], stats[point{s, "file"}]) {
			return nil, fmt.Errorf("F14 S=%d gate: aggregated stats differ between backends:\nmem:  %+v\nfile: %+v",
				s, stats[point{s, "mem"}], stats[point{s, "file"}])
		}
	}
	for _, backend := range []string{"mem", "file"} {
		r1, r4 := rows[point{1, backend}], rows[point{4, backend}]
		if r1 == nil || r4 == nil {
			continue
		}
		if r4.Cells["batchReads"] > 4*r1.Cells["batchReads"] {
			return nil, fmt.Errorf("F14 %s gate: S=4 batch reads %.0f exceed 4x S=1's %.0f",
				backend, r4.Cells["batchReads"], r1.Cells["batchReads"])
		}
		if r4.Cells["scanReads"] > 4*r1.Cells["scanReads"] {
			return nil, fmt.Errorf("F14 %s gate: S=4 scan reads %.0f exceed 4x S=1's %.0f",
				backend, r4.Cells["scanReads"], r1.Cells["scanReads"])
		}
		if backend == "file" && latency > 0 && r4.Cells["batchQps"] < 2*r1.Cells["batchQps"] {
			return nil, fmt.Errorf("F14 %s gate: S=4 batch QPS %.0f not >= 2x S=1's %.0f",
				backend, r4.Cells["batchQps"], r1.Cells["batchQps"])
		}
	}
	return t, nil
}

// shardedPoint serves the fixed workload from an S-shard layout for one
// (shards, backend) coordinate, owning its volumes — and, on the file
// backend, their directories — for exactly its scope. It returns the
// aggregated serving-phase Stats beside the row so the caller can check
// cross-backend identity.
func shardedPoint(n, s int, latency time.Duration, backend string) (*Row, pdm.Stats, error) {
	vols := make([]*pdm.Volume, s)
	pools := make([]*pdm.Pool, s)
	for i := range vols {
		cfg := pdm.Config{BlockBytes: 1024, MemBlocks: 256, Disks: 2, DiskLatency: latency}
		if backend == "file" {
			dir, err := os.MkdirTemp("", "emF14")
			if err != nil {
				return nil, pdm.Stats{}, err
			}
			defer os.RemoveAll(dir)
			cfg.Dir = dir
		}
		vol, err := pdm.NewVolume(cfg)
		if err != nil {
			return nil, pdm.Stats{}, err
		}
		defer vol.Close()
		vols[i] = vol
		pools[i] = pdm.PoolFor(vol)
	}

	// An even range partition of keys 1..n: shard i owns
	// (i*n/s, (i+1)*n/s]; the top shard also fields the misses above n.
	splits := make([]uint64, s-1)
	for i := range splits {
		splits[i] = uint64((i+1)*n/s) + 1
	}
	shards := make([]*btree.Tree, s)
	for i := range shards {
		lo, hi := i*n/s+1, (i+1)*n/s
		recs := make([]record.Record, 0, hi-lo+1)
		for k := lo; k <= hi; k++ {
			recs = append(recs, record.Record{Key: uint64(k), Val: uint64(k) * 3})
		}
		sf, err := stream.FromSlice(vols[i], pools[i], record.RecordCodec{}, recs)
		if err != nil {
			return nil, pdm.Stats{}, err
		}
		tr, err := btree.BulkLoad(vols[i], pools[i], 16, sf, &btree.BulkLoadOptions{Width: 2})
		if err != nil {
			return nil, pdm.Stats{}, err
		}
		// The serving posture per shard, as in F12: internals flushed clean
		// and resident, so the timed phases below pay leaf reads only.
		if err := tr.Rehome(pools[i], 16); err != nil {
			return nil, pdm.Stats{}, err
		}
		shards[i] = tr
	}
	sharded, err := shard.NewTree(shards, &shard.TreeOptions{Splits: splits})
	if err != nil {
		return nil, pdm.Stats{}, err
	}
	defer sharded.Close()
	if err := sharded.Warm(); err != nil {
		return nil, pdm.Stats{}, err
	}

	for _, v := range vols {
		v.Stats().Reset()
	}

	// The scan runs first, as in F12: the stitched scanner's leaf reads
	// bypass the shard caches, but the batch rounds would admit leaves into
	// them, and a scan over cache-warm shards would flatter the sharded
	// layout — every layout's scan here sees cold leaves.
	start := time.Now()
	sc, err := sharded.Scan(0, ^uint64(0))
	if err != nil {
		return nil, pdm.Stats{}, err
	}
	cnt := 0
	for {
		_, ok, err := sc.Next()
		if err != nil {
			sc.Close()
			return nil, pdm.Stats{}, err
		}
		if !ok {
			break
		}
		cnt++
	}
	sc.Close()
	scanMs := msSince(start)
	scanReads := sharded.Stats().Reads
	if cnt != n {
		return nil, pdm.Stats{}, fmt.Errorf("F14: stitched scan returned %d of %d records", cnt, n)
	}

	// Rounds of a 1k-key batch, ~1/8 misses, through the merge-cut fan-out.
	rng := rand.New(rand.NewSource(0xF14))
	const rounds, batchKeys = 3, 1000
	start = time.Now()
	for r := 0; r < rounds; r++ {
		keys := make([]uint64, batchKeys)
		for i := range keys {
			keys[i] = uint64(rng.Intn(n+n/8) + 1)
		}
		vals, found, err := sharded.GetBatch(keys)
		if err != nil {
			return nil, pdm.Stats{}, err
		}
		for i, k := range keys {
			if want := k <= uint64(n); found[i] != want || (want && vals[i] != k*3) {
				return nil, pdm.Stats{}, fmt.Errorf("F14: GetBatch(%d) = (%d,%v), want (%d,%v)",
					k, vals[i], found[i], k*3, want)
			}
		}
	}
	batchMs := msSince(start)
	batchQps := rounds * batchKeys / (batchMs / 1000)
	snap := sharded.Stats()
	batchReads := snap.Reads - scanReads

	return &Row{
		Label: fmt.Sprintf("S=%d/%s", s, backend),
		Cells: map[string]float64{
			"batchMs": batchMs, "batchQps": batchQps, "batchReads": float64(batchReads),
			"scanMs": scanMs, "scanReads": float64(scanReads),
		},
		Order: []string{"batchMs", "batchQps", "batchReads", "scanMs", "scanReads"},
	}, snap, nil
}
