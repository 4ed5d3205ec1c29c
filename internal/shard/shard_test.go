package shard

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"em/internal/btree"
	"em/internal/index"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/store"
	"em/internal/stream"
)

func testConfig() pdm.Config {
	return pdm.Config{BlockBytes: 512, MemBlocks: 96, Disks: 2}
}

func storeConfig() store.Config {
	return store.Config{
		FrontOps:    100,
		CacheFrames: 4,
		Width:       2,
	}
}

// shardVolumes opens s independent volumes of identical shape — file-backed
// in their own directories when file is set — with one pool each.
func shardVolumes(t *testing.T, s int, file bool) ([]*pdm.Volume, []*pdm.Pool) {
	t.Helper()
	vols := make([]*pdm.Volume, s)
	pools := make([]*pdm.Pool, s)
	for i := range vols {
		cfg := testConfig()
		if file {
			cfg.Dir = t.TempDir()
		}
		vols[i] = pdm.MustVolume(cfg)
		t.Cleanup(func() { vols[i].Close() })
		pools[i] = pdm.PoolFor(vols[i])
	}
	return vols, pools
}

// forEachBackend mirrors the pdm/btree/store test harnesses: every check
// runs against the memory simulation and real per-disk files.
func forEachBackend(t *testing.T, fn func(t *testing.T, file bool)) {
	t.Run("mem", func(t *testing.T) { fn(t, false) })
	t.Run("file", func(t *testing.T) { fn(t, true) })
}

// randomSplits draws s-1 strictly increasing boundaries inside (0, maxKey),
// so every shard interval is non-empty over the test keyspace.
func randomSplits(rng *rand.Rand, s int, maxKey uint64) []uint64 {
	picked := map[uint64]bool{}
	for len(picked) < s-1 {
		picked[uint64(rng.Int63n(int64(maxKey-2)))+2] = true
	}
	splits := make([]uint64, 0, s-1)
	for k := range picked {
		splits = append(splits, k)
	}
	sort.Slice(splits, func(i, j int) bool { return splits[i] < splits[j] })
	return splits
}

// buildShardedTree bulk-loads each shard's slice of the sorted records on
// its own volume and assembles the facade.
func buildShardedTree(t *testing.T, vols []*pdm.Volume, pools []*pdm.Pool, splits []uint64, sorted []record.Record) *Tree {
	t.Helper()
	shards := make([]*btree.Tree, len(vols))
	for i := range vols {
		var part []record.Record
		for _, r := range sorted {
			if ownerOf(splits, r.Key) == i {
				part = append(part, r)
			}
		}
		sf, err := stream.FromSlice(vols[i], pools[i], record.RecordCodec{}, part)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := btree.BulkLoad(vols[i], pools[i], 8, sf, nil)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = tr
	}
	st, err := NewTree(shards, &TreeOptions{Splits: splits})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func drainScanner(t *testing.T, sc index.Scanner) []record.Record {
	t.Helper()
	defer sc.Close()
	var out []record.Record
	for {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// TestCutBatch checks the merge cut directly: the segments partition the
// sorted view exactly, every key lands in its owner's segment, and shard
// ids ascend strictly (so the fan-out touches each shard once).
func TestCutBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		s := rng.Intn(5) + 1
		splits := []uint64{}
		if s > 1 {
			splits = randomSplits(rng, s, 1000)
		}
		keys := make([]uint64, rng.Intn(64))
		for i := range keys {
			keys[i] = uint64(rng.Intn(1100))
		}
		order, segs := cutBatch(splits, keys)
		covered := 0
		lastShard := -1
		for _, sg := range segs {
			if sg.shard <= lastShard {
				t.Fatalf("shard ids not strictly ascending: %d after %d", sg.shard, lastShard)
			}
			lastShard = sg.shard
			if sg.lo != covered {
				t.Fatalf("segment starts at %d, expected %d", sg.lo, covered)
			}
			covered = sg.hi
			for m := sg.lo; m < sg.hi; m++ {
				if own := ownerOf(splits, keys[order[m]]); own != sg.shard {
					t.Fatalf("key %d in shard %d segment, owner %d", keys[order[m]], sg.shard, own)
				}
			}
		}
		if covered != len(keys) {
			t.Fatalf("segments cover %d of %d positions", covered, len(keys))
		}
	}
}

func TestValidateSplits(t *testing.T) {
	if err := validateSplits(0, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	if err := validateSplits(3, []uint64{5}); err == nil {
		t.Fatal("wrong split count accepted")
	}
	if err := validateSplits(3, []uint64{9, 5}); err == nil {
		t.Fatal("descending splits accepted")
	}
	if err := validateSplits(3, []uint64{5, 5}); err == nil {
		t.Fatal("equal splits accepted")
	}
	if err := validateSplits(3, []uint64{5, 9}); err != nil {
		t.Fatalf("valid splits rejected: %v", err)
	}
}

// TestShardedTreeQuickMatchesReference quick-checks the sharded read path
// against a single-volume tree holding the identical records, over random
// partition counts, on both backends: GetBatch answers and Scan streams
// are record-identical, and the sharded layout's aggregated reads stay
// within S times the reference's (each of the S trees is at most as tall
// as the reference, so no descent pays more than the single-volume one).
// Every sharded scan is drained twice from the same cold caches, a leaf at
// a time and with NextBatch hidden, and both drains return the same
// records at the same reads and steps.
func TestShardedTreeQuickMatchesReference(t *testing.T) {
	forEachBackend(t, func(t *testing.T, file bool) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 4; trial++ {
			s := rng.Intn(5) + 1
			const maxKey = 4096
			n := 600 + rng.Intn(600)
			splits := []uint64{}
			if s > 1 {
				splits = randomSplits(rng, s, maxKey)
			}
			recs := make([]record.Record, 0, n)
			seen := map[uint64]bool{}
			for len(recs) < n {
				k := uint64(rng.Intn(maxKey)) + 1
				if !seen[k] {
					seen[k] = true
					recs = append(recs, record.Record{Key: k, Val: k * 3})
				}
			}
			sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })

			vols, pools := shardVolumes(t, s, file)
			sharded := buildShardedTree(t, vols, pools, splits, recs)
			refVols, refPools := shardVolumes(t, 1, file)
			reference := buildShardedTree(t, refVols, refPools, nil, recs)

			// An unsorted batch with ~1/4 misses, answered by both layouts
			// from a reset counter baseline.
			keys := make([]uint64, 500)
			for i := range keys {
				keys[i] = uint64(rng.Intn(maxKey+maxKey/4)) + 1
			}
			for _, v := range vols {
				v.Stats().Reset()
			}
			refVols[0].Stats().Reset()
			vals, found, err := sharded.GetBatch(keys)
			if err != nil {
				t.Fatal(err)
			}
			refVals, refFound, err := reference.GetBatch(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if vals[i] != refVals[i] || found[i] != refFound[i] {
					t.Fatalf("GetBatch disagrees on key %d: (%d,%v) vs (%d,%v)",
						keys[i], vals[i], found[i], refVals[i], refFound[i])
				}
			}
			if got, ref := sharded.Stats().Reads, reference.Stats().Reads; got > uint64(s)*ref {
				t.Fatalf("sharded GetBatch reads %d exceed %d x reference %d", got, s, ref)
			}

			// Point lookups through a composed session match too.
			sess, err := sharded.NewSession(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			sv, sf, err := sess.GetBatch(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if sv[i] != refVals[i] || sf[i] != refFound[i] {
					t.Fatalf("session GetBatch disagrees on key %d", keys[i])
				}
			}
			if _, ok, err := sess.Get(recs[0].Key); err != nil || !ok {
				t.Fatalf("session Get(%d): ok=%v err=%v", recs[0].Key, ok, err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}

			// Random ranges — including cross-shard and full-keyspace ones —
			// stream the identical records in order.
			for r := 0; r < 4; r++ {
				lo := uint64(rng.Intn(maxKey)) + 1
				hi := lo + uint64(rng.Intn(maxKey))
				if r == 0 {
					lo, hi = 0, ^uint64(0)
				}
				got, gotIO := coldScan(t, sharded, pools, lo, hi, false)
				next, nextIO := coldScan(t, sharded, pools, lo, hi, true)
				refScan, err := reference.Scan(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				want := drainScanner(t, refScan)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("scan [%d,%d] disagrees: %d vs %d records", lo, hi, len(got), len(want))
				}
				if !reflect.DeepEqual(next, want) {
					t.Fatalf("per-record scan [%d,%d] disagrees: %d vs %d records", lo, hi, len(next), len(want))
				}
				if gotIO != nextIO {
					t.Fatalf("scan [%d,%d]: %+v (reads, steps) a leaf at a time, %+v a record at a time", lo, hi, gotIO, nextIO)
				}
			}
		}
	})
}

// TestShardedStoreQuickMatchesReference drives the identical random
// interleaving of inserts, deletes, and forced drains through a sharded
// store and a single-volume store, on both backends, checking point reads
// (through the stores and through Sessions opened at the start, which
// live through every handover), batches, and the final scans agree record
// for record. At fronts of 100 ops the stores mostly merge fully, with
// drains in flight beside the reads; at 16, each threshold drain is waited
// out, so young generations build and grow in the shards and the
// reference alike. That an explicit Drain leaves a store one generation
// is asserted per store, in internal/store's TestStoreQuickMatchesMap.
func TestShardedStoreQuickMatchesReference(t *testing.T) {
	forEachBackend(t, func(t *testing.T, file bool) {
		for _, frontOps := range []int64{100, 16} {
			cfg := storeConfig()
			cfg.FrontOps = frontOps
			shardedStoreQuick(t, file, cfg, frontOps < 100)
		}
	})
}

func shardedStoreQuick(t *testing.T, file bool, cfg store.Config, waitDrains bool) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		s := rng.Intn(5) + 1
		const maxKey = 2048
		splits := []uint64{}
		if s > 1 {
			splits = randomSplits(rng, s, maxKey)
		}
		vols, pools := shardVolumes(t, s, file)
		sharded, err := OpenStore(vols, pools, &StoreOptions{Splits: splits, Store: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer sharded.Close()
		refVols, refPools := shardVolumes(t, 1, file)
		reference, err := store.Open(refVols[0], refPools[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer reference.Close()
		liveSess, err := sharded.NewSession(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		refSess, err := reference.NewSession(0, 0)
		if err != nil {
			t.Fatal(err)
		}

		for op := 0; op < 900; op++ {
			k := uint64(rng.Intn(maxKey)) + 1
			if rng.Intn(4) == 0 {
				if err := sharded.Delete(k); err != nil {
					t.Fatal(err)
				}
				if err := reference.Delete(k); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := sharded.Insert(k, uint64(op)); err != nil {
					t.Fatal(err)
				}
				if err := reference.Insert(k, uint64(op)); err != nil {
					t.Fatal(err)
				}
			}
			if waitDrains {
				// Each threshold drain lands before the next op, so young
				// generations build whatever the scheduling.
				for sharded.Draining() || reference.Draining() {
					time.Sleep(10 * time.Microsecond)
				}
			}
			if op%300 == 299 {
				if err := sharded.Drain(); err != nil {
					t.Fatal(err)
				}
				if err := reference.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			if op%37 == 0 {
				v, ok, err := sharded.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				rv, rok, rerr := reference.Get(k)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if v != rv || ok != rok {
					t.Fatalf("Get(%d) disagrees: (%d,%v) vs (%d,%v)", k, v, ok, rv, rok)
				}
				sv, sok, err := liveSess.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				rsv, rsok, err := refSess.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if sv != rv || sok != rok || rsv != rv || rsok != rok {
					t.Fatalf("session Get(%d) disagrees: sharded (%d,%v), reference (%d,%v), want (%d,%v)", k, sv, sok, rsv, rsok, rv, rok)
				}
			}
			if op%61 == 0 {
				// A range across the fronts, young generations and old.
				sc, err := sharded.Scan(k, k+200)
				if err != nil {
					t.Fatal(err)
				}
				got := drainScanner(t, sc)
				rsc, err := reference.Scan(k, k+200)
				if err != nil {
					t.Fatal(err)
				}
				if want := drainScanner(t, rsc); !reflect.DeepEqual(got, want) {
					t.Fatalf("scan [%d,%d] disagrees: %d vs %d records", k, k+200, len(got), len(want))
				}
			}
		}
		if err := liveSess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := refSess.Close(); err != nil {
			t.Fatal(err)
		}

		keys := make([]uint64, 300)
		for i := range keys {
			keys[i] = uint64(rng.Intn(maxKey+64)) + 1
		}
		vals, found, err := sharded.GetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		refVals, refFound, err := reference.GetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if vals[i] != refVals[i] || found[i] != refFound[i] {
				t.Fatalf("GetBatch disagrees on key %d", keys[i])
			}
		}

		sess, err := sharded.NewSession(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sv, sf, err := sess.GetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if sv[i] != refVals[i] || sf[i] != refFound[i] {
				t.Fatalf("session GetBatch disagrees on key %d", keys[i])
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}

		shardedScan, err := sharded.Scan(0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		got := drainScanner(t, shardedScan)
		refScan, err := reference.Scan(0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		want := drainScanner(t, refScan)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("full scan disagrees: %d vs %d records", len(got), len(want))
		}
	}
}

// TestShardedStoreStatsBackendIdentity pins the aggregated-counter
// invariant the facade promises: a deterministic workload — writes, an
// explicit drain on every shard, batched reads, a full scan — produces a
// byte-identical aggregated Stats snapshot on the memory simulation and on
// real files.
func TestShardedStoreStatsBackendIdentity(t *testing.T) {
	run := func(t *testing.T, file bool) pdm.Stats {
		const s = 3
		splits := []uint64{300, 700}
		vols, pools := shardVolumes(t, s, file)
		st, err := OpenStore(vols, pools, &StoreOptions{Splits: splits, Store: storeConfig()})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(44))
		for op := 0; op < 240; op++ {
			k := uint64(rng.Intn(1000)) + 1
			if rng.Intn(5) == 0 {
				if err := st.Delete(k); err != nil {
					t.Fatal(err)
				}
			} else if err := st.Insert(k, uint64(op)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Drain(); err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, 200)
		for i := range keys {
			keys[i] = uint64(rng.Intn(1100)) + 1
		}
		if _, _, err := st.GetBatch(keys); err != nil {
			t.Fatal(err)
		}
		sc, err := st.Scan(0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		drainScanner(t, sc)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return st.Stats()
	}
	mem := run(t, false)
	fil := run(t, true)
	if !reflect.DeepEqual(mem, fil) {
		t.Fatalf("aggregated stats differ between backends:\nmem:  %+v\nfile: %+v", mem, fil)
	}
	if len(mem.PerDiskReads) != 3*testConfig().Disks {
		t.Fatalf("aggregate has %d per-disk read counters, want %d",
			len(mem.PerDiskReads), 3*testConfig().Disks)
	}
}

// TestShardedStoreConcurrentDrains hammers every shard's write front from
// concurrent writers — fronts seal and drain in the background, several
// shards at once — while readers run point, batch, and scan queries. Run
// under -race by make ci, this is the drain-concurrency check for the
// sharded facade; the final drain-and-scan verifies nothing was lost.
func TestShardedStoreConcurrentDrains(t *testing.T) {
	const s = 4
	splits := []uint64{1 << 12, 2 << 12, 3 << 12}
	vols, pools := shardVolumes(t, s, false)
	st, err := OpenStore(vols, pools, &StoreOptions{Splits: splits, Store: storeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const writers = 4
	const perWriter = 400
	var wg sync.WaitGroup
	errs := make([]error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer sprays all shards, so drains overlap across them.
			for i := 0; i < perWriter; i++ {
				k := (uint64(i*writers+w) * 10) % (4 << 12)
				if err := st.Insert(k+1, uint64(w)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys := make([]uint64, 64)
		for i := 0; i < 40; i++ {
			for j := range keys {
				keys[j] = uint64(i*64+j)%(4<<12) + 1
			}
			if _, _, err := st.GetBatch(keys); err != nil {
				errs[writers] = err
				return
			}
			sc, err := st.Scan(keys[0], keys[0]+512)
			if err != nil {
				errs[writers] = err
				return
			}
			for {
				if _, ok, err := sc.Next(); err != nil {
					errs[writers] = err
					sc.Close()
					return
				} else if !ok {
					break
				}
			}
			sc.Close()
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	sc, err := st.Scan(0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(drainScanner(t, sc)), writers*perWriter; got != want {
		t.Fatalf("after concurrent writes: %d records, want %d", got, want)
	}
}

// TestShardSessionStarvedPool pins the error contract: when one shard's
// pool cannot fund its slice of a composed session, the failure carries
// that shard's index and still matches pdm.ErrNoFrames through errors.Is.
func TestShardSessionStarvedPool(t *testing.T) {
	vols, pools := shardVolumes(t, 2, false)
	recs := []record.Record{{Key: 1, Val: 1}, {Key: 600, Val: 2}}
	sharded := buildShardedTree(t, vols, pools, []uint64{512}, recs)

	// Rehome shard 1 onto a pool with no headroom beyond its cache, so the
	// session reserve (cacheFrames + 2 x width) cannot be funded there.
	tight := pdm.NewPool(testConfig().BlockBytes, 3)
	if err := sharded.Shard(1).Rehome(tight, 3); err != nil {
		t.Fatal(err)
	}
	_, err := sharded.NewSession(0, 0)
	if err == nil {
		t.Fatal("session on a starved shard pool succeeded")
	}
	if !errors.Is(err, pdm.ErrNoFrames) {
		t.Fatalf("error does not wrap pdm.ErrNoFrames: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 1:") {
		t.Fatalf("error does not name the starved shard: %v", err)
	}
}

// TestShardedScannerClosed checks the index.Scanner lifecycle edges on
// every implementation the sharded layer serves — the stitched scanner
// over trees, a single store's, and the stitched scanner over stores: Next
// after Close reports stream.ErrClosed and Close is idempotent.
func TestShardedScannerClosed(t *testing.T) {
	recs := []record.Record{{Key: 1, Val: 1}, {Key: 600, Val: 2}}
	insertAll := func(ix interface{ Insert(k, v uint64) error }) {
		t.Helper()
		for _, r := range recs {
			if err := ix.Insert(r.Key, r.Val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) index.Index
	}{
		{"sharded tree", func(t *testing.T) index.Index {
			vols, pools := shardVolumes(t, 2, false)
			return buildShardedTree(t, vols, pools, []uint64{512}, recs)
		}},
		{"store", func(t *testing.T) index.Index {
			vols, pools := shardVolumes(t, 1, false)
			st, err := store.Open(vols[0], pools[0], storeConfig())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			insertAll(st)
			return st
		}},
		{"sharded store", func(t *testing.T) index.Index {
			vols, pools := shardVolumes(t, 2, false)
			st, err := OpenStore(vols, pools, &StoreOptions{Splits: []uint64{512}, Store: storeConfig()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			insertAll(st)
			return st
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.open(t).Scan(0, ^uint64(0))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(drainScanner(t, sc)); got != len(recs) {
				t.Fatalf("scan returned %d records, want %d", got, len(recs))
			}
			if _, ok, err := sc.Next(); ok || !errors.Is(err, stream.ErrClosed) {
				t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
			}
			sc.Close() // idempotent
			if _, ok, err := sc.Next(); ok || !errors.Is(err, stream.ErrClosed) {
				t.Fatalf("Next after a second Close: ok=%v err=%v", ok, err)
			}
		})
	}
}
