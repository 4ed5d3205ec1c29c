// Kvserve: serve a Zipf-skewed point/range workload from a key/value index
// — the read side of every storage engine — four ways, showing how the
// serving subsystem reaches the parallel-disk floor:
//
//  1. one-at-a-time Gets            one serialized read per descent step
//  2. batched Gets (GetBatch)       shared internals deduped, leaves D at a time
//  3. prefetched scans (Scanner)    leaf chain forecast, D reads in flight
//  4. four read sessions            private cache budgets, QPS scales with D
//  5. one API, two layouts          the same em.Index code over the single
//     tree and a 4×1-disk sharded layout
//
// The index is built with the write-optimal SortIndex, whose sort feeds
// the bulk loader directly, and warmed (internal levels resident, Θ(N/B²) blocks) before serving —
// the classical database posture. The volume simulates D disks with a
// fixed per-block service time, so the wall clock below is the model's
// parallel-step cost, not host noise; counted block reads come from the
// same Stats all experiments report.
//
// Run with:
//
//	go run ./examples/kvserve
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"em"
)

const (
	blockBytes = 2048
	memBlocks  = 256
	disks      = 4
	latency    = 500 * time.Microsecond
	n          = 100_000
	pointQ     = 2048 // point lookups replayed per serving strategy
	scanQ      = 64   // range scans replayed
	scanSpan   = 4096 // key-space span of each range scan
	sessions   = 4
)

func main() {
	vol := em.MustVolume(em.Config{
		BlockBytes: blockBytes, MemBlocks: memBlocks, Disks: disks, DiskLatency: latency,
	})
	defer vol.Close()
	pool := em.PoolFor(vol)

	// Build the index from unsorted records with the fused, write-behind
	// sort→index path, then adopt the serving posture: fan-out in memory.
	rng := rand.New(rand.NewSource(1))
	recs := make([]em.Record, n)
	for i, k := range rng.Perm(n) {
		recs[i] = em.Record{Key: uint64(k + 1), Val: uint64(i)}
	}
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	idx, err := em.SortIndex(f, pool, &em.SortIndexOptions{Width: disks, CacheFrames: 32})
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.Warm(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d records in %v (height %d, D=%d disks, %v/block)\n\n",
		n, time.Since(start).Round(time.Millisecond), idx.Height(), disks, latency)

	// The workload: Zipf-skewed point keys (hot keys dominate, as real
	// traffic does) plus occasional short range scans.
	zipf := rand.NewZipf(rng, 1.2, 1, n-1)
	points := make([]uint64, pointQ)
	for i := range points {
		points[i] = zipf.Uint64() + 1
	}

	measure := func(label string, queries int, fn func() error) {
		vol.Stats().Reset()
		start := time.Now()
		if err := fn(); err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		fmt.Printf("%-34s %8.0f qps  %7d reads  %v\n",
			label+":", float64(queries)/el.Seconds(), vol.Stats().Snapshot().Reads,
			el.Round(time.Millisecond))
	}

	// 1. One descent per query, one synchronous read per step.
	var loopVals []uint64
	measure("looped Gets", pointQ, func() error {
		for _, k := range points {
			v, ok, err := idx.Get(k)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("key %d missing", k)
			}
			loopVals = append(loopVals, v)
		}
		return nil
	})

	// 2. The same keys as one batch: sorted, shared internals read once,
	// leaf reads fanned D at a time.
	var batchVals []uint64
	measure("batched Gets (GetBatch)", pointQ, func() error {
		vals, found, err := idx.GetBatch(points)
		if err != nil {
			return err
		}
		for i := range points {
			if !found[i] {
				return fmt.Errorf("key %d missing", points[i])
			}
		}
		batchVals = vals
		return nil
	})
	for i := range loopVals {
		if loopVals[i] != batchVals[i] {
			log.Fatalf("loop and batch disagree on key %d", points[i])
		}
	}

	// 3. Range scans: synchronous sibling chain vs forecasting scanner,
	// replaying the identical ranges.
	scanLos := make([]uint64, scanQ)
	for i := range scanLos {
		scanLos[i] = uint64(rng.Intn(n-scanSpan)) + 1
	}
	scanFrom := func(prefetch bool) error {
		for s := 0; s < scanQ; s++ {
			lo := scanLos[s]
			got := 0
			fn := func(k, v uint64) error { got++; return nil }
			var err error
			if prefetch {
				err = idx.RangePrefetch(pool, lo, lo+scanSpan-1, nil, fn)
			} else {
				err = idx.Range(lo, lo+scanSpan-1, fn)
			}
			if err != nil {
				return err
			}
			if got != scanSpan {
				return fmt.Errorf("scan at %d returned %d of %d", lo, got, scanSpan)
			}
		}
		return nil
	}
	measure("sync Range scans", scanQ, func() error { return scanFrom(false) })
	measure("prefetched scans (Scanner)", scanQ, func() error { return scanFrom(true) })

	// 4. Concurrent serving: the mixed workload behind G read sessions.
	serve := func(g int) func() error {
		return func() error {
			ss := make([]*em.BTreeSession, g)
			for i := range ss {
				s, err := idx.NewSessionOn(pool, 16, disks)
				if err != nil {
					return err
				}
				defer s.Close()
				if err := s.Warm(); err != nil {
					return err
				}
				ss[i] = s
			}
			var wg sync.WaitGroup
			errs := make([]error, g)
			for i, s := range ss {
				wg.Add(1)
				go func(i int, s *em.BTreeSession) {
					defer wg.Done()
					z := rand.NewZipf(rand.New(rand.NewSource(int64(i+7))), 1.2, 1, n-1)
					for j := 0; j < pointQ/g; j++ {
						if _, ok, err := s.Get(z.Uint64() + 1); err != nil || !ok {
							errs[i] = fmt.Errorf("session %d: get failed (%v)", i, err)
							return
						}
					}
				}(i, s)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	fmt.Println()
	measure("1 read session", pointQ, serve(1))
	measure(fmt.Sprintf("%d read sessions", sessions), pointQ, serve(sessions))

	// 5. The unified serving API: the identical code drives the single tree
	// and a sharded layout — four one-disk volumes range-partitioned by
	// key, the same total disk count as the volume above — through
	// em.Index, with reads taken from the interface's own aggregated Stats.
	kv := make(map[uint64]uint64, n)
	for _, r := range recs {
		kv[r.Key] = r.Val
	}
	const shardCount = 4
	splits := make([]uint64, shardCount-1)
	for i := range splits {
		splits[i] = uint64((i+1)*n/shardCount) + 1
	}
	shardTrees := make([]*em.BTree, shardCount)
	for i := range shardTrees {
		v := em.MustVolume(em.Config{
			BlockBytes: blockBytes, MemBlocks: memBlocks, Disks: 1, DiskLatency: latency,
		})
		defer v.Close()
		p := em.PoolFor(v)
		lo, hi := uint64(i*n/shardCount)+1, uint64((i+1)*n/shardCount)
		srecs := make([]em.Record, 0, hi-lo+1)
		for k := lo; k <= hi; k++ {
			srecs = append(srecs, em.Record{Key: k, Val: kv[k]})
		}
		sf, err := em.FromSlice(v, p, em.RecordCodec{}, srecs)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := em.BulkLoadBTreeWith(v, p, 16, sf, &em.BulkLoadOptions{Width: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.Warm(); err != nil {
			log.Fatal(err)
		}
		shardTrees[i] = tr
	}
	sharded, err := em.NewShardedTree(shardTrees, &em.ShardedTreeOptions{Splits: splits})
	if err != nil {
		log.Fatal(err)
	}
	defer sharded.Close()

	fmt.Println()
	for _, layout := range []struct {
		label string
		index em.Index
	}{
		{"em.Index, one 4-disk volume", idx},
		{"em.Index, 4 sharded volumes", sharded},
	} {
		qps, reads, err := serveIndex(layout.index)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %8.0f qps  %7d reads\n", layout.label+":", qps, reads)
	}

	fmt.Printf("\nbatching dedupes the index fan-out and stripes leaf reads over %d disks;\n", disks)
	fmt.Println("the scanner forecasts the leaf chain from resident parents, never reading")
	fmt.Println("more than Range; sessions overlap independent descents on the engine; one")
	fmt.Println("em.Index surface serves the single and the sharded layout unchanged ✓")
}

// serveIndex replays a mixed workload — the point batch, cross-boundary
// range scans, a batched read through a session — against any em.Index,
// written once for every layout. Reads come from the index's own Stats, so
// the sharded layout reports its aggregate.
func serveIndex(index em.Index) (qps float64, reads uint64, err error) {
	rng := rand.New(rand.NewSource(9))
	points := make([]uint64, pointQ)
	for i := range points {
		points[i] = uint64(rng.Intn(n)) + 1
	}
	before := index.Stats().Reads
	queries := 0
	start := time.Now()
	if _, _, err := index.GetBatch(points); err != nil {
		return 0, 0, err
	}
	queries += len(points)
	for s := 0; s < scanQ/8; s++ {
		lo := uint64(rng.Intn(n-scanSpan)) + 1
		sc, err := index.Scan(lo, lo+scanSpan-1)
		if err != nil {
			return 0, 0, err
		}
		got := 0
		for {
			_, ok, err := sc.Next()
			if err != nil {
				sc.Close()
				return 0, 0, err
			}
			if !ok {
				break
			}
			got++
		}
		sc.Close()
		if got != scanSpan {
			return 0, 0, fmt.Errorf("scan at %d returned %d of %d", lo, got, scanSpan)
		}
		queries++
	}
	sess, err := index.NewSession(16, 0)
	if err != nil {
		return 0, 0, err
	}
	if _, _, err := sess.GetBatch(points); err != nil {
		sess.Close()
		return 0, 0, err
	}
	queries += len(points)
	if err := sess.Close(); err != nil {
		return 0, 0, err
	}
	return float64(queries) / time.Since(start).Seconds(), index.Stats().Reads - before, nil
}
