package em_test

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"em"
)

// shuffledRecords returns the keys 1..n in seeded random order.
func shuffledRecords(seed int64, n int) []em.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]em.Record, n)
	for i, k := range rng.Perm(n) {
		recs[i] = em.Record{Key: uint64(k + 1), Val: rng.Uint64()}
	}
	return recs
}

// sortIndexWorkload drives the acceptance workload for the storage-backend
// invariants — MergeSort, DistributionSort, and B-tree BulkLoad over the
// same input — on one volume and returns the cumulative Stats snapshot.
// Keys are a shuffled permutation of 1..n so the bulk load sees strictly
// increasing keys once sorted.
func sortIndexWorkload(t *testing.T, vol *em.Volume, seed int64, n int) em.Stats {
	t.Helper()
	pool := em.PoolFor(vol)
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, shuffledRecords(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	opts := &em.SortOptions{Width: vol.Disks()}
	merged, err := em.SortRecords(f, pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := em.DistributionSort(f, pool, em.Record.Less, opts)
	if err != nil {
		t.Fatal(err)
	}
	dist.Release()
	tr, err := em.BulkLoadBTreeWith(vol, pool, 8, merged, &em.BulkLoadOptions{Width: vol.Disks()})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != int64(n) {
		t.Fatalf("bulk load lost records: %d != %d", tr.Len(), n)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
	return vol.Stats().Snapshot()
}

// TestQuickBackendCountersIdentical is the acceptance property of the
// file-backed volume backend: for the same MergeSort + DistributionSort +
// BulkLoad workload, the Stats snapshot — reads, writes, steps, and the
// per-disk shards — is byte-identical between the memory backend and the
// file backend.
func TestQuickBackendCountersIdentical(t *testing.T) {
	prop := func(seedRaw uint32, nRaw uint16, disksRaw uint8) bool {
		seed := int64(seedRaw)
		n := 512 + int(nRaw)%2048
		disks := 1 + int(disksRaw)%4
		cfg := em.Config{BlockBytes: 256, MemBlocks: 96, Disks: disks}

		memVol := em.MustVolume(cfg)
		memStats := sortIndexWorkload(t, memVol, seed, n)
		memVol.Close()

		fileVol, err := em.NewFileVolume(cfg, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fileStats := sortIndexWorkload(t, fileVol, seed, n)
		if err := fileVol.Close(); err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(memStats, fileStats) {
			t.Logf("seed=%d n=%d D=%d: mem %+v file %+v", seed, n, disks, memStats, fileStats)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// asyncWorkloads runs MergeSort, DistributionSort, SortIndex and BulkLoad
// (of the merge sort's output) over n shuffled records, each on a fresh
// D-disk volume of 1 KiB blocks, in memory or in files, with the Async
// option set as given, and returns each workload's Stats. The sorts get a
// pool of frames; SortIndex and BulkLoad get frames plus the loader's
// budget (8 cache frames and 2×D leaf frames), so the sort inside
// SortIndex sees the same budget.
func asyncWorkloads(t *testing.T, file bool, seed int64, n, disks, frames int, async bool) map[string]em.Stats {
	t.Helper()
	//lint:ignore SA1019 the deprecated flag is set to show it changes nothing
	sortOpts := &em.SortOptions{Width: disks, Async: async}
	//lint:ignore SA1019 as above
	indexOpts := &em.SortIndexOptions{Width: disks, Async: async}
	//lint:ignore SA1019 as above
	loadOpts := &em.BulkLoadOptions{Width: disks, Async: async}
	stats := map[string]em.Stats{}
	for _, name := range []string{"merge", "dist", "index", "bulk"} {
		cfg := em.Config{BlockBytes: 1024, MemBlocks: 8, Disks: disks}
		if file {
			cfg.Dir = t.TempDir()
		}
		vol := em.MustVolume(cfg)
		defer vol.Close()
		f, err := em.FromSlice(vol, em.NewPool(cfg.BlockBytes, 1), em.RecordCodec{}, shuffledRecords(seed, n))
		if err != nil {
			t.Fatal(err)
		}
		pool := em.NewPool(cfg.BlockBytes, frames)
		loaderPool := em.NewPool(cfg.BlockBytes, frames+8+2*disks)
		if name == "bulk" {
			if f, err = em.SortRecords(f, pool, sortOpts); err != nil {
				t.Fatal(err)
			}
		}
		vol.Stats().Reset()
		var out *em.File[em.Record]
		var tr *em.BTree
		switch name {
		case "merge":
			out, err = em.SortRecords(f, pool, sortOpts)
		case "dist":
			out, err = em.DistributionSort(f, pool, em.Record.Less, sortOpts)
		case "index":
			tr, err = em.SortIndex(f, loaderPool, indexOpts)
		case "bulk":
			tr, err = em.BulkLoadBTreeWith(vol, loaderPool, 8, f, loadOpts)
		}
		if err != nil {
			t.Fatalf("%s n=%d D=%d frames=%d async=%v: %v", name, n, disks, frames, async, err)
		}
		if (out != nil && out.Len() != int64(n)) || (tr != nil && tr.Len() != int64(n)) {
			t.Fatalf("%s n=%d: records lost", name, n)
		}
		stats[name] = vol.Stats().Snapshot()
	}
	return stats
}

// TestQuickAsyncMatchesSyncPerBackend pins Async as a deprecated no-op: on
// both storage backends, MergeSort, DistributionSort, SortIndex and
// BulkLoad charge byte-identical Stats with it set and unset, each stream's
// depth coming from its plan. The fixed shapes are the ones where the flag
// used to matter: merge sort at D=4 on 24 frames, where halving the fan-in
// cost 320 parallel steps instead of 192, and the distribution sort at D=4
// on 16 and 24 frames, where the halved fan-out could not sort at all.
func TestQuickAsyncMatchesSyncPerBackend(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			file := backend == "file"
			check := func(seed int64, n, disks, frames int) bool {
				off := asyncWorkloads(t, file, seed, n, disks, frames, false)
				on := asyncWorkloads(t, file, seed, n, disks, frames, true)
				if !reflect.DeepEqual(off, on) {
					t.Logf("seed=%d n=%d D=%d frames=%d: Async unset %+v, set %+v", seed, n, disks, frames, off, on)
					return false
				}
				return true
			}
			for _, frames := range []int{16, 24} {
				if !check(1, 1<<13, 4, frames) {
					t.Fatalf("D=4 frames=%d: the Async option changed the counted I/Os", frames)
				}
			}
			if st := asyncWorkloads(t, file, 1, 1<<13, 4, 24, true)["merge"]; st.Steps != 192 {
				t.Fatalf("merge sort at D=4, 24 frames: %d steps, want 192", st.Steps)
			}
			prop := func(seedRaw uint32, nRaw uint16, disksRaw uint8) bool {
				return check(int64(seedRaw), 1+int(nRaw)%(1<<13), 1+int(disksRaw)%4, 40)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 4}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFileVolumeEndToEnd exercises the facade constructor on a striped
// file volume: async sort and bulk load against real files, verified output.
func TestFileVolumeEndToEnd(t *testing.T) {
	vol, err := em.NewFileVolume(em.Config{BlockBytes: 256, MemBlocks: 64, Disks: 4}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	pool := em.PoolFor(vol)
	recs := randomRecords(rand.New(rand.NewSource(77)), 4000)
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
		t.Fatalf("file-backed async sort output not sorted (err=%v)", err)
	}
	if sorted.Len() != int64(len(recs)) {
		t.Fatalf("length changed: %d != %d", sorted.Len(), len(recs))
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// gomaxprocsConfig is the device shape of the GOMAXPROCS tests: 128 records
// per block and enough frames that a run buffer or a base case holds tens of
// thousands of records, so the in-memory sort kernel really cuts it into one
// chunk per CPU (a 16-record-block geometry never leaves its one-chunk path).
var gomaxprocsConfig = em.Config{BlockBytes: 2048, MemBlocks: 200, Disks: 2}

// recordSort is the signature em.MergeSort and em.DistributionSort share.
type recordSort = func(*em.File[em.Record], *em.Pool, func(a, b em.Record) bool, *em.SortOptions) (*em.File[em.Record], error)

// TestSortCountersIndependentOfGOMAXPROCS pins that the kernel's parallelism
// cannot leak into the I/O schedule: MergeSort, DistributionSort and
// SortIndex write identical output and charge identical Stats — per-disk
// counts and parallel steps included — at GOMAXPROCS 1 and 4, on both
// backends. n=20000 is a single run and a single base case, sorted as four
// chunks; n=70000 takes the multi-pass paths around them. SortIndex runs on
// one goroutine, its sort emitting straight into the loader, so its block
// placement is as fixed as the sorts'.
func TestSortCountersIndependentOfGOMAXPROCS(t *testing.T) {
	type result struct {
		name  string
		out   []em.Record
		stats em.Stats
	}
	run := func(t *testing.T, cfg em.Config, n int) []result {
		vol := em.MustVolume(cfg)
		defer vol.Close()
		pool := em.PoolFor(vol)
		f, err := em.FromSlice(vol, pool, em.RecordCodec{}, shuffledRecords(int64(n), n))
		if err != nil {
			t.Fatal(err)
		}
		sortFile := func(sortFn recordSort) func() ([]em.Record, error) {
			return func() ([]em.Record, error) {
				sorted, err := sortFn(f, pool, em.Record.Less, &em.SortOptions{Width: 2})
				if err != nil {
					return nil, err
				}
				defer sorted.Release()
				return em.ToSlice(sorted, pool)
			}
		}
		sortIndex := func() ([]em.Record, error) {
			tr, err := em.SortIndex(f, pool, &em.SortIndexOptions{Width: 2})
			if err != nil {
				return nil, err
			}
			var out []em.Record
			err = tr.Range(0, ^uint64(0), func(k, v uint64) error {
				out = append(out, em.Record{Key: k, Val: v})
				return nil
			})
			if err != nil {
				return nil, err
			}
			return out, tr.Close()
		}
		var results []result
		for _, step := range []struct {
			name string
			fn   func() ([]em.Record, error)
		}{
			{"MergeSort", sortFile(em.MergeSort[em.Record])},
			{"DistributionSort", sortFile(em.DistributionSort[em.Record])},
			{"SortIndex", sortIndex},
		} {
			vol.Stats().Reset()
			out, err := step.fn()
			if err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			if len(out) != n {
				t.Fatalf("%s: %d records out, want %d", step.name, len(out), n)
			}
			if pool.InUse() != 0 {
				t.Fatalf("%s: leaked %d frames", step.name, pool.InUse())
			}
			results = append(results, result{step.name, out, vol.Stats().Snapshot()})
		}
		return results
	}

	for _, n := range []int{20000, 70000} {
		var ref []result
		for _, procs := range []int{1, 4} {
			for name, cfg := range backendConfigs(t, gomaxprocsConfig) {
				prev := runtime.GOMAXPROCS(procs)
				got := run(t, cfg, n)
				runtime.GOMAXPROCS(prev)
				if ref == nil {
					ref = got
					continue
				}
				for i, r := range got {
					if !reflect.DeepEqual(r.stats, ref[i].stats) {
						t.Errorf("n=%d procs=%d %s %s: stats %+v, want %+v", n, procs, name, r.name, r.stats, ref[i].stats)
					}
					if !reflect.DeepEqual(r.out, ref[i].out) {
						t.Errorf("n=%d procs=%d %s %s: output differs", n, procs, name, r.name)
					}
				}
			}
		}
	}
}

// TestSortUnwindWhenSinkFailsMidEmit crashes the volume while the kernel is
// merging four sorted chunks into the run writer (MergeSort) and the output
// writer (DistributionSort): the emit error must unwind like any other, with
// the pool and the volume's live blocks exactly restored.
func TestSortUnwindWhenSinkFailsMidEmit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 20000
	recs := shuffledRecords(n, n)
	sorts := map[string]recordSort{
		"MergeSort":        em.MergeSort[em.Record],
		"DistributionSort": em.DistributionSort[em.Record],
	}
	sortOpts := &em.SortOptions{Width: 2}
	for name, sortFn := range sorts {
		t.Run(name, func(t *testing.T) {
			// Fault-free twin: n fits one buffer, so the sort is every read
			// followed by every write, and three quarters of the way
			// through its transfers it is half way through emitting.
			dry := em.MustVolume(gomaxprocsConfig)
			defer dry.Close()
			dryPool := em.PoolFor(dry)
			f, err := em.FromSlice(dry, dryPool, em.RecordCodec{}, recs)
			if err != nil {
				t.Fatal(err)
			}
			inputOps := int64(dry.Stats().Total())
			if _, err := sortFn(f, dryPool, em.Record.Less, sortOpts); err != nil {
				t.Fatal(err)
			}
			sortOps := int64(dry.Stats().Total()) - inputOps
			if reads := int64(dry.Stats().Snapshot().Reads); reads != sortOps/2 {
				t.Fatalf("sort made %d reads of %d transfers, want one read pass and one write pass", reads, sortOps)
			}

			cfg := gomaxprocsConfig
			cfg.Fault = &em.FaultPlan{Seed: 1, FailAfter: inputOps + sortOps*3/4}
			vol := em.MustVolume(cfg)
			defer vol.Close()
			pool := em.PoolFor(vol)
			f, err = em.FromSlice(vol, pool, em.RecordCodec{}, recs)
			if err != nil {
				t.Fatal(err)
			}
			freeBefore, liveBefore := pool.Free(), liveBlocks(vol)
			if _, err := sortFn(f, pool, em.Record.Less, sortOpts); !errors.Is(err, em.ErrFaulted) {
				t.Fatalf("err = %v, want em.ErrFaulted", err)
			}
			if got := pool.Free(); got != freeBefore {
				t.Errorf("pool not restored: free %d, want %d", got, freeBefore)
			}
			if got := liveBlocks(vol); got != liveBefore {
				t.Errorf("blocks leaked: live %d, want %d", got, liveBefore)
			}
		})
	}
}
