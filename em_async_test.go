package em_test

import (
	"math/rand"
	"testing"
	"time"

	"em"
)

// TestFacadeAsyncScan checks the prefetching scan through the public API:
// same records, same counted I/Os as ForEach.
func TestFacadeAsyncScan(t *testing.T) {
	vol, pool := env(t, 256, 16, 4)
	recs := randomRecords(rand.New(rand.NewSource(3)), 1000)
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
	if err != nil {
		t.Fatal(err)
	}

	vol.Stats().Reset()
	var syncOut []em.Record
	if err := em.ForEach(f, pool, func(r em.Record) error {
		syncOut = append(syncOut, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	syncReads := vol.Stats().Snapshot().Reads

	vol.Stats().Reset()
	var asyncOut []em.Record
	if err := em.AsyncScan(f, pool, func(r em.Record) error {
		asyncOut = append(asyncOut, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	asyncReads := vol.Stats().Snapshot().Reads

	if len(syncOut) != len(asyncOut) {
		t.Fatalf("lengths %d vs %d", len(syncOut), len(asyncOut))
	}
	for i := range syncOut {
		if syncOut[i] != asyncOut[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if syncReads != asyncReads {
		t.Fatalf("reads differ: sync %d async %d", syncReads, asyncReads)
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// TestFacadeAsyncSortOnLatencyVolume runs the merge sort, whose merge
// groups read ahead and write behind, end to end on a latency volume
// through the public API and verifies the result.
func TestFacadeAsyncSortOnLatencyVolume(t *testing.T) {
	vol := em.MustVolume(em.Config{
		BlockBytes: 256, MemBlocks: 32, Disks: 4,
		DiskLatency: 10 * time.Microsecond,
	})
	defer vol.Close()
	pool := em.PoolFor(vol)
	recs := randomRecords(rand.New(rand.NewSource(9)), 3000)
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := em.SortRecords(f, pool, &em.SortOptions{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := em.IsSorted(sorted, pool, em.Record.Less)
	if err != nil || !ok {
		t.Fatalf("sort output not sorted (err=%v)", err)
	}
	if sorted.Len() != int64(len(recs)) {
		t.Fatalf("length changed: %d != %d", sorted.Len(), len(recs))
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// TestFacadePrefetchReaderAndAsyncWriter round-trips through the exported
// asynchronous stream types.
func TestFacadePrefetchReaderAndAsyncWriter(t *testing.T) {
	vol, pool := env(t, 256, 16, 4)
	f := em.NewFile[em.Record](vol, em.RecordCodec{})
	w, err := em.NewAsyncWriter(f, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := randomRecords(rand.New(rand.NewSource(5)), 500)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := em.NewPrefetchReader(f, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for {
		v, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if v != recs[i] {
			t.Fatalf("record %d differs", i)
		}
		i++
	}
	r.Close()
	if i != len(recs) {
		t.Fatalf("read %d records, want %d", i, len(recs))
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// TestFacadeAsyncDistributionSortOnLatencyVolume runs the distribution sort,
// whose levels read ahead and write behind, end to end on a latency volume
// through the public API and verifies the result.
func TestFacadeAsyncDistributionSortOnLatencyVolume(t *testing.T) {
	vol := em.MustVolume(em.Config{
		BlockBytes: 256, MemBlocks: 48, Disks: 4,
		DiskLatency: 10 * time.Microsecond,
	})
	defer vol.Close()
	pool := em.PoolFor(vol)
	recs := randomRecords(rand.New(rand.NewSource(11)), 3000)
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := em.DistributionSort(f, pool, em.Record.Less, &em.SortOptions{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := em.IsSorted(sorted, pool, em.Record.Less)
	if err != nil || !ok {
		t.Fatalf("distribution sort output not sorted (err=%v)", err)
	}
	if sorted.Len() != int64(len(recs)) {
		t.Fatalf("length changed: %d != %d", sorted.Len(), len(recs))
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// TestFacadeAsyncBulkLoadMatchesSync round-trips a sorted file through the
// width-1 and the width-4 bulk loaders, both reading ahead, and checks the
// trees answer identically, with no frames retained beyond the trees' own
// caches.
func TestFacadeAsyncBulkLoadMatchesSync(t *testing.T) {
	vol, pool := env(t, 256, 32, 4)
	recs := make([]em.Record, 2000)
	for i := range recs {
		recs[i] = em.Record{Key: uint64(i + 1), Val: uint64(i * 3)}
	}
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := em.BulkLoadBTreeWith(vol, pool, 8, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	anarrow, err := em.BulkLoadBTreeWith(vol, pool, 8, f, &em.BulkLoadOptions{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		sv, sok, serr := narrow.Get(r.Key)
		av, aok, aerr := anarrow.Get(r.Key)
		if serr != nil || aerr != nil || !sok || !aok || sv != av || av != r.Val {
			t.Fatalf("key %d: width 1 (%d,%v,%v) width 4 (%d,%v,%v)", r.Key, sv, sok, serr, av, aok, aerr)
		}
	}
	if err := narrow.Close(); err != nil {
		t.Fatal(err)
	}
	if err := anarrow.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// TestAsyncSortIndexSpeedupGate is the acceptance gate for forecasting
// beyond the merge path, the distribution-side mirror of the engine's
// TestDiskLatencyParallelSpeedup: the width-4 distribution sort and B-tree
// bulk load on four disks must take >= 1.5x fewer parallel steps than the
// same calls at width 1 on one disk (the model predicts more). Steps are
// the model's wall clock, counted exactly and charged at dispatch whatever
// the latency, so the volumes have none; that each run takes exactly its
// steps in model time at 2 ms per block is pinned by F10's synctest suite
// (`make modeltime`).
func TestAsyncSortIndexSpeedupGate(t *testing.T) {
	run := func(disks int) (dist, bulk uint64) {
		vol := em.MustVolume(em.Config{BlockBytes: 1024, MemBlocks: 96, Disks: disks})
		defer vol.Close()
		pool := em.PoolFor(vol)
		recs := randomRecords(rand.New(rand.NewSource(29)), 1<<13)
		f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
		if err != nil {
			t.Fatal(err)
		}
		measure := func(fn func()) uint64 {
			before := vol.Stats().Snapshot().Steps
			fn()
			return vol.Stats().Snapshot().Steps - before
		}
		var sorted *em.File[em.Record]
		dist = measure(func() {
			if sorted, err = em.DistributionSort(f, pool, em.Record.Less, &em.SortOptions{Width: disks}); err != nil {
				t.Fatal(err)
			}
		})
		// The load is measured to a closed tree, every node on the volume.
		bulk = measure(func() {
			tr, err := em.BulkLoadBTreeWith(vol, pool, 8, sorted, &em.BulkLoadOptions{Width: disks})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != sorted.Len() {
				t.Fatalf("bulk load lost records: %d != %d", tr.Len(), sorted.Len())
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		})
		return dist, bulk
	}
	serialDist, serialBulk := run(1)
	wideDist, wideBulk := run(4)
	for _, c := range []struct {
		name         string
		serial, wide uint64
	}{{"distribution sort", serialDist, wideDist}, {"bulk load", serialBulk, wideBulk}} {
		speedup := float64(c.serial) / float64(c.wide)
		t.Logf("%s: D=1 %d steps, D=4 %d steps, speedup %.2fx", c.name, c.serial, c.wide, speedup)
		if speedup < 1.5 {
			t.Errorf("%s D=4 speedup %.2fx in steps, want >= 1.5x", c.name, speedup)
		}
	}
}
