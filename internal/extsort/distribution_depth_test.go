package extsort

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// distSorted distribution-sorts vs with the fan-out capped at fanOut on a
// pool of capacity frames and returns the output and the sort's I/O
// counters, failing the test on an error or a leaked frame.
func distSorted(t *testing.T, vs []record.Record, width, fanOut, capacity int, latency time.Duration) ([]record.Record, pdm.Stats) {
	t.Helper()
	cfg := pdm.Config{BlockBytes: 64, MemBlocks: 24, Disks: 4, DiskLatency: latency}
	vol := pdm.MustVolume(cfg)
	defer vol.Close()
	pool := pdm.NewPool(cfg.BlockBytes, capacity)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	out, err := DistributionSort(f, pool, record.Record.Less, &Options{Width: width, ForceFanIn: fanOut})
	if err != nil {
		t.Fatal(err)
	}
	st := vol.Stats().Snapshot()
	got, err := stream.ToSlice(out, pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
	return got, st
}

// distinctRecords produces n records with pairwise-distinct pseudo-random
// keys (an odd multiplier is a bijection mod 2^64), so the all-equal bucket
// fallback never triggers and the recursion stays deterministic.
func distinctRecords(n int) []record.Record {
	vs := make([]record.Record, n)
	for i := range vs {
		vs[i] = record.Record{Key: uint64(i) * 2654435761, Val: uint64(i)}
	}
	return vs
}

// sameCounters reports whether two snapshots agree on every I/O counter of
// the model.
func sameCounters(a, b pdm.Stats) bool {
	return a.Reads == b.Reads && a.Writes == b.Writes && a.Steps == b.Steps
}

// TestAsyncDistributionSortIdenticalStats sorts at widths 1 and 2 with the
// fan-out capped at 3, on pools whose levels read ahead and write behind,
// once on an instant volume and once on a latency volume where the
// read-ahead genuinely overlaps: both outputs must be the sorted input and
// every I/O counter must agree, since overlap never changes the model.
func TestAsyncDistributionSortIdenticalStats(t *testing.T) {
	for _, tc := range []struct{ width, capacity int }{{1, 12}, {2, 20}} {
		for _, n := range []int{0, 1, 37, 256, 1000} {
			vs := distinctRecords(n)
			want := sortedCopy(vs)
			got, st := distSorted(t, vs, tc.width, 3, tc.capacity, 0)
			lagged, lagSt := distSorted(t, vs, tc.width, 3, tc.capacity, 2*time.Microsecond)
			if !slices.Equal(got, want) || !slices.Equal(lagged, want) {
				t.Fatalf("w=%d n=%d: output is not the sorted input", tc.width, n)
			}
			if !sameCounters(st, lagSt) {
				t.Fatalf("w=%d n=%d: stats differ: instant %+v, latency %+v", tc.width, n, st, lagSt)
			}
		}
	}
}

// TestAsyncDistributionSortQuick is the quick-check property over arbitrary
// inputs on a latency volume: the output is the sorted input and every I/O
// counter matches the same sort on an instant volume.
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
		lagged, lagSt := distSorted(t, vs, 1, 3, 12, 2*time.Microsecond)
		_, st := distSorted(t, vs, 1, 3, 12, 0)
		return slices.Equal(lagged, sortedCopy(vs)) && sameCounters(st, lagSt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDepthFromPlan is a table over (pass, free frames, width): the
// depth stream.Depth gives the pass's streams, and the pool peak the pass
// reaches at that depth.
//   - DistributionSort's output writer opens beside a level's reader and
//     two writers, so both write behind when four streams fit at
//     2×Width: a base case then peaks at its two streams plus its 10-block
//     record buffer, and a partitioned level takes the whole pool (at
//     least all but the resident bucket's spill writer). On 11 frames at
//     width 2 neither fits, and the sort runs on demand.
//   - SortIndex holds back btree.LoaderFrames, and its levels read ahead
//     when three streams fit in the rest: the loader's cache and leaf
//     frames plus a base case's reader at 2×Width and its buffer.
//   - BulkLoad's one reader reads ahead when it fits at 2×Width beyond
//     btree.LoaderFrames (the serving benchmark's 48 cache frames), one
//     Width group above BulkLoadFrom over an on-demand reader, and equals
//     it one frame short.
func TestStreamDepthFromPlan(t *testing.T) {
	const (
		per         = 16 // 16-byte records in 256-byte blocks, big enough for a node
		cacheFrames = 4
		loadCache   = 48
	)
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 32, Disks: 4})
	build := pdm.PoolFor(vol)
	input := func(vs []record.Record) *stream.File[record.Record] {
		t.Helper()
		f, err := stream.FromSlice(vol, build, record.RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	sorted := make([]record.Record, 4096)
	for i := range sorted {
		sorted[i] = record.Record{Key: uint64(i + 1), Val: uint64(i)}
	}
	loadInput := input(sorted)
	defer loadInput.Release()
	// load bulk-loads loadInput, through a reader on demand or at the
	// depth BulkLoad picks, and returns the pool's peak.
	load := func(capacity, w int, onDemand bool) int {
		t.Helper()
		pool := pdm.NewPool(256, capacity)
		opts := &btree.BulkLoadOptions{Width: w}
		var tr *btree.Tree
		var err error
		if onDemand {
			r, rerr := stream.NewStripedReader(loadInput, pool, w)
			if rerr != nil {
				t.Fatal(rerr)
			}
			tr, err = btree.BulkLoadFrom(vol, pool, loadCache, r, opts)
			r.Close()
		} else {
			tr, err = btree.BulkLoad(vol, pool, loadCache, loadInput, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return pool.Peak()
	}

	type pass struct {
		// depth is the pass's frame rule: its streams' depth in free frames.
		depth func(free, w int) int
		// run runs the pass over n records in a pool of free frames, its
		// streams at depth, and returns the pool's peak.
		run func(t *testing.T, n, free, w, depth int) int
	}
	passes := map[string]pass{
		"DistributionSort": {
			depth: func(free, w int) int { return stream.Depth(free, 4, w) },
			run: func(t *testing.T, n, free, w, _ int) int {
				vs := distinctRecords(n)
				f := input(vs)
				defer f.Release()
				pool := pdm.NewPool(256, free)
				out, err := DistributionSort(f, pool, record.Record.Less, &Options{Width: w})
				if err != nil {
					t.Fatal(err)
				}
				got, err := stream.ToSlice(out, pool)
				out.Release()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, sortedCopy(vs)) {
					t.Fatal("output is not the sorted input")
				}
				if pool.InUse() != 0 {
					t.Fatalf("leaked %d frames", pool.InUse())
				}
				return pool.Peak()
			},
		},
		"SortIndex": {
			depth: func(free, w int) int { return stream.Depth(free-btree.LoaderFrames(cacheFrames, w), 3, w) },
			run: func(t *testing.T, n, free, w, _ int) int {
				f := input(distinctRecords(n))
				defer f.Release()
				pool := pdm.NewPool(256, free)
				tr, err := SortIndex(f, pool, cacheFrames, &Options{Width: w})
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				return pool.Peak()
			},
		},
		"BulkLoad": {
			depth: func(free, w int) int { return stream.Depth(free-btree.LoaderFrames(loadCache, w), 1, w) },
			run: func(t *testing.T, _, free, w, depth int) int {
				peak, demand := load(free, w, false), load(free, w, true)
				if peak != demand+(depth-1)*w {
					t.Fatalf("pool peak %d, want the on-demand %d + %d", peak, demand, (depth-1)*w)
				}
				return peak
			},
		},
	}
	for _, tc := range []struct {
		pass        string
		n           int // input records
		free, width int
		depth, peak int
	}{
		{"DistributionSort", 10 * per, 64, 1, 2, 2*2 + 10}, // a base case
		{"DistributionSort", 10 * per, 64, 2, 2, 2*4 + 10},
		{"DistributionSort", 10 * per, 64, 4, 2, 2*8 + 10},
		{"DistributionSort", 120 * per, 64, 1, 2, 64}, // a partitioned level
		{"DistributionSort", 120 * per, 64, 2, 2, 64},
		{"DistributionSort", 120 * per, 64, 4, 2, 64},
		{"DistributionSort", 75 * per, 11, 2, 1, 11}, // at 2×Width no level could open
		{"SortIndex", 10 * per, 64, 1, 2, cacheFrames + 2 + 2 + 10},
		{"SortIndex", 10 * per, 64, 2, 2, cacheFrames + 4 + 4 + 10},
		{"BulkLoad", len(sorted), 256, 2, 2, 32},
		{"BulkLoad", len(sorted), 256, 4, 2, 40},
		{"BulkLoad", len(sorted), loadCache + 4*2 - 1, 2, 1, 30},
		{"BulkLoad", len(sorted), loadCache + 4*4 - 1, 4, 1, 36},
	} {
		t.Run(fmt.Sprintf("%s/n=%d/free=%d/W=%d", tc.pass, tc.n, tc.free, tc.width), func(t *testing.T) {
			p := passes[tc.pass]
			if got := p.depth(tc.free, tc.width); got != tc.depth {
				t.Errorf("depth %d, want %d", got, tc.depth)
			}
			if peak := p.run(t, tc.n, tc.free, tc.width, tc.depth); peak != tc.peak {
				t.Errorf("pool peak %d, want %d", peak, tc.peak)
			}
		})
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
		"w1/starved-mid-sort": {2, nil},
		// Width 2: the output writer takes two frames, and the one left
		// cannot host a reader.
		"w2/starved-mid-sort": {3, &Options{Width: 2}},
	} {
		starved := pdm.NewPool(64, tc.capacity)
		preLive := vol.Allocated() - vol.FreeBlocks()
		_, err := DistributionSort(f, starved, record.Record.Less, tc.opts)
		if err == nil {
			t.Fatalf("%s: sort with %d frames succeeded", name, tc.capacity)
		}
		if !errors.Is(err, ErrEmptyPool) {
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
// file is released, at Width frames per stream and at 2×Width.
func TestPartitionErrorReleasesFramesAndBuckets(t *testing.T) {
	for name, tc := range map[string]struct {
		opts  *Options
		depth int
	}{
		"w1/demand": {nil, 1},
		"w2/ahead":  {&Options{Width: 2}, 2},
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
		d := &distSorter[record.Record]{pool: pool, less: record.Record.Less, kern: recordKernel, opts: tc.opts, depth: tc.depth}
		splitters := make([]record.Record, 9)
		for i := range splitters {
			splitters[i] = record.Record{Key: uint64(i * 20)}
		}
		_, buckets, err := d.partition(f, splitters, 0, d.depth)
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
	d := &distSorter[record.Record]{pool: pool, less: record.Record.Less, kern: recordKernel}
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
