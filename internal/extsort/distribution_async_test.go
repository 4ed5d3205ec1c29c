package extsort

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// distBoth distribution-sorts vs synchronously and asynchronously with the
// fan-out capped at fanOut and the same pool of capacity frames, returning
// both outputs and both stats snapshots.
//
// The sort sizes every level at the double-buffered stream charge in either
// mode and holds its output writer's frames at that charge too, so both
// paths see the same free-frame budget at every memRecords/fanOut/plan
// decision and take byte-identical recursion paths — the distribution-side
// analogue of TestAsyncMergeRunsIdenticalStats merging identical run sets.
func distBoth(t *testing.T, vs []record.Record, width, fanOut, capacity int, latency time.Duration) (syncOut, asyncOut []record.Record, syncStats, asyncStats pdm.Stats) {
	t.Helper()
	run := func(async bool) ([]record.Record, pdm.Stats) {
		cfg := pdm.Config{BlockBytes: 64, MemBlocks: 24, Disks: 4, DiskLatency: latency}
		vol := pdm.MustVolume(cfg)
		defer vol.Close()
		pool := pdm.NewPool(cfg.BlockBytes, capacity)
		f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		opts := &Options{Width: width, ForceFanIn: fanOut, Async: async}
		out, err := DistributionSort(f, pool, record.Record.Less, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := vol.Stats().Snapshot()
		got, err := stream.ToSlice(out, pool)
		if err != nil {
			t.Fatal(err)
		}
		if pool.InUse() != 0 {
			t.Fatalf("async=%v: leaked %d frames", async, pool.InUse())
		}
		return got, st
	}
	syncOut, syncStats = run(false)
	asyncOut, asyncStats = run(true)
	return
}

// distinctRecords produces n records with pairwise-distinct pseudo-random
// keys (an odd multiplier is a bijection mod 2^64), so the all-equal bucket
// fallback — whose inner merge sort sees different budgets sync vs async —
// never triggers and the recursion stays deterministic.
func distinctRecords(n int) []record.Record {
	vs := make([]record.Record, n)
	for i := range vs {
		vs[i] = record.Record{Key: uint64(i) * 2654435761, Val: uint64(i)}
	}
	return vs
}

// TestAsyncDistributionSortIdenticalStats asserts the forecast-driven
// distribution sort issues exactly the synchronous I/Os at equal pool:
// same outputs, same reads, writes, and parallel steps. The async engine
// must change overlap, never the counted model.
func TestAsyncDistributionSortIdenticalStats(t *testing.T) {
	for _, tc := range []struct{ width, capacity int }{{1, 12}, {2, 20}} {
		for _, n := range []int{0, 1, 37, 256, 1000} {
			vs := distinctRecords(n)
			sOut, aOut, sSt, aSt := distBoth(t, vs, tc.width, 3, tc.capacity, 0)
			if len(sOut) != len(aOut) || len(sOut) != n {
				t.Fatalf("w=%d n=%d: lengths sync=%d async=%d", tc.width, n, len(sOut), len(aOut))
			}
			for i := range sOut {
				if sOut[i] != aOut[i] {
					t.Fatalf("w=%d n=%d: record %d differs: %v vs %v", tc.width, n, i, sOut[i], aOut[i])
				}
			}
			if sSt.Reads != aSt.Reads || sSt.Writes != aSt.Writes || sSt.Steps != aSt.Steps {
				t.Fatalf("w=%d n=%d: stats differ: sync %+v async %+v", tc.width, n, sSt, aSt)
			}
		}
	}
}

// TestAsyncDistributionSortQuick is the quick-check property over arbitrary
// inputs on a latency volume: output and every I/O counter of the
// async path match the synchronous path at equal pool.
func TestAsyncDistributionSortQuick(t *testing.T) {
	f := func(keys []uint16) bool {
		if len(keys) > 600 {
			keys = keys[:600]
		}
		vs := make([]record.Record, len(keys))
		for i, k := range keys {
			// Distinct keys ordered primarily by the arbitrary uint16.
			vs[i] = record.Record{Key: uint64(k)<<32 | uint64(i), Val: uint64(i)}
		}
		sOut, aOut, sSt, aSt := distBoth(t, vs, 1, 3, 12, 2*time.Microsecond)
		if len(sOut) != len(aOut) {
			return false
		}
		for i := range sOut {
			if sOut[i] != aOut[i] {
				return false
			}
		}
		return sSt.Reads == aSt.Reads && sSt.Writes == aSt.Writes && sSt.Steps == aSt.Steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDistributionSortHonoursAsyncOptions pins the regression this package
// fixed: DistributionSort used to silently drop Async and Width, so an async
// run left the pool's high-water mark at the synchronous level. A width-2
// async sort must charge double-buffered frame groups to the pool.
func TestDistributionSortHonoursAsyncOptions(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 24, Disks: 4})
	pool := pdm.PoolFor(vol)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, distinctRecords(300))
	if err != nil {
		t.Fatal(err)
	}
	out, err := DistributionSort(f, pool, record.Record.Less, &Options{Width: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	out.Release()
	// The output writer alone holds 2×width = 4 frames; any partition pass
	// adds a reader and at least two bucket writers on top.
	if peak := pool.Peak(); peak < 3*4 {
		t.Fatalf("pool peak %d: async width-2 streams not charged (options dropped?)", peak)
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
}

// TestDistributionSortFailsCleanlyWithoutMemory asserts the starved-pool
// behaviour the merge path already had: a pool that cannot host even the
// reader returns ErrEmptyPool — it must not silently proceed with an
// impossible one-frame budget — and leaks nothing.
func TestDistributionSortFailsCleanlyWithoutMemory(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 16, Disks: 1})
	pool := pdm.PoolFor(vol)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, distinctRecords(200))
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		capacity int
		opts     *Options
	}{
		// Two frames: the output writer takes one, the remaining single
		// frame cannot host a reader plus any record buffer.
		"sync/starved-mid-sort": {2, nil},
		// Async width 2 needs four frames for the output writer alone.
		"async/starved-at-open": {3, &Options{Width: 2, Async: true}},
	} {
		starved := pdm.NewPool(64, tc.capacity)
		preLive := vol.Allocated() - vol.FreeBlocks()
		_, err := DistributionSort(f, starved, record.Record.Less, tc.opts)
		if err == nil {
			t.Fatalf("%s: sort with %d frames succeeded", name, tc.capacity)
		}
		if name == "sync/starved-mid-sort" && !errors.Is(err, ErrEmptyPool) {
			t.Fatalf("%s: error %v, want ErrEmptyPool", name, err)
		}
		if starved.InUse() != 0 {
			t.Fatalf("%s: leaked %d frames", name, starved.InUse())
		}
		if live := vol.Allocated() - vol.FreeBlocks(); live != preLive {
			t.Fatalf("%s: stranded %d volume blocks", name, live-preLive)
		}
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames from the builder pool", pool.InUse())
	}
}

// TestPartitionErrorReleasesFramesAndBuckets injects an allocation failure
// into the middle of partition's writer-opening loop and asserts every
// already-open writer's frames come back and every already-created bucket
// file is released — the pool-frame leak this PR plugs.
func TestPartitionErrorReleasesFramesAndBuckets(t *testing.T) {
	for name, opts := range map[string]*Options{
		"sync":  nil,
		"async": {Width: 2, Async: true},
	} {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 32, Disks: 4})
		build := pdm.PoolFor(vol)
		f, err := stream.FromSlice(vol, build, record.RecordCodec{}, distinctRecords(200))
		if err != nil {
			t.Fatal(err)
		}
		// Six frames cannot host ten writers at >=1 frame each, so the open
		// loop fails partway with several writers (and bucket files) live.
		pool := pdm.NewPool(64, 6)
		d := &distSorter[record.Record]{pool: pool, less: record.Record.Less, opts: opts}
		splitters := make([]record.Record, 9)
		for i := range splitters {
			splitters[i] = record.Record{Key: uint64(i * 20)}
		}
		_, buckets, err := d.partition(f, splitters, 0)
		if err == nil {
			t.Fatalf("%s: partition with 6 frames and 10 buckets succeeded", name)
		}
		if buckets != nil {
			t.Fatalf("%s: error return kept buckets", name)
		}
		if pool.InUse() != 0 {
			t.Fatalf("%s: leaked %d frames on partition failure", name, pool.InUse())
		}
	}
}

// TestFallbackMergeReleasesBucketOnError starves the merge sort inside the
// all-equal-bucket fallback and asserts the bucket file is released — its
// blocks returned to the volume — rather than stranded, and no frames leak.
func TestFallbackMergeReleasesBucketOnError(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 32, Disks: 1})
	build := pdm.PoolFor(vol)
	b, err := stream.FromSlice(vol, build, record.RecordCodec{}, distinctRecords(100))
	if err != nil {
		t.Fatal(err)
	}
	// Two frames: MergeSort's run formation needs more than reader+writer.
	pool := pdm.NewPool(64, 2)
	d := &distSorter[record.Record]{pool: pool, less: record.Record.Less}
	if err := d.fallbackMerge(b, nil); err == nil {
		t.Fatal("fallback merge with a 2-frame pool succeeded")
	} else if !errors.Is(err, ErrEmptyPool) {
		t.Fatalf("error %v, want ErrEmptyPool", err)
	}
	if b.Blocks() != 0 || b.Len() != 0 {
		t.Fatalf("bucket not released on fallback failure: %d blocks, %d records", b.Blocks(), b.Len())
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
}

// TestMergeSortReleasesRunsOnMergeError forces run formation to succeed and
// the merge phase to fail (ForceFanIn below 2) and asserts the formed runs
// are released rather than stranded on the volume — the path the all-equal
// bucket fallback reaches when the shared pool is tight.
func TestMergeSortReleasesRunsOnMergeError(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 32, Disks: 1})
	build := pdm.PoolFor(vol)
	f, err := stream.FromSlice(vol, build, record.RecordCodec{}, distinctRecords(40))
	if err != nil {
		t.Fatal(err)
	}
	preLive := vol.Allocated() - vol.FreeBlocks()
	pool := pdm.NewPool(64, 4) // enough to form several runs, never to merge
	_, err = MergeSort(f, pool, record.Record.Less, &Options{ForceFanIn: 1})
	if err == nil {
		t.Fatal("merge sort with fan-in 1 succeeded")
	} else if !errors.Is(err, ErrEmptyPool) {
		t.Fatalf("error %v, want ErrEmptyPool", err)
	}
	if live := vol.Allocated() - vol.FreeBlocks(); live != preLive {
		t.Fatalf("stranded %d volume blocks of formed runs", live-preLive)
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
}
