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
func sortIndexWorkload(t *testing.T, vol *em.Volume, seed int64, n int, async bool) em.Stats {
	t.Helper()
	pool := em.PoolFor(vol)
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, shuffledRecords(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	opts := &em.SortOptions{Width: vol.Disks(), Async: async}
	merged, err := em.SortRecords(f, pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := em.DistributionSort(f, pool, em.Record.Less, opts)
	if err != nil {
		t.Fatal(err)
	}
	dist.Release()
	tr, err := em.BulkLoadBTreeWith(vol, pool, 8, merged, &em.BulkLoadOptions{Width: vol.Disks(), Async: async})
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
// file backend, in both synchronous and forecasting (async) modes.
func TestQuickBackendCountersIdentical(t *testing.T) {
	prop := func(seedRaw uint32, nRaw uint16, disksRaw uint8, async bool) bool {
		seed := int64(seedRaw)
		n := 512 + int(nRaw)%2048
		disks := 1 + int(disksRaw)%4
		cfg := em.Config{BlockBytes: 256, MemBlocks: 96, Disks: disks}

		memVol := em.MustVolume(cfg)
		memStats := sortIndexWorkload(t, memVol, seed, n, async)
		memVol.Close()

		fileVol, err := em.NewFileVolume(cfg, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fileStats := sortIndexWorkload(t, fileVol, seed, n, async)
		if err := fileVol.Close(); err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(memStats, fileStats) {
			t.Logf("seed=%d n=%d D=%d async=%v: mem %+v file %+v", seed, n, disks, async, memStats, fileStats)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAsyncMatchesSyncPerBackend re-runs the async==sync counter
// property on each storage backend: at equal fan-out — forced below both
// paths' natural budgets, with the async pool compensated by the 2×width
// frames its double-buffered writer holds, exactly like the extsort suite —
// the forecasting distribution sort and bulk load must charge the
// synchronous paths' I/Os to the byte, whether the blocks live in memory or
// in files.
func TestQuickAsyncMatchesSyncPerBackend(t *testing.T) {
	const width, fanOut, syncCap = 2, 3, 20
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			prop := func(seedRaw uint32, nRaw uint16) bool {
				seed := uint64(seedRaw)
				n := 1 + int(nRaw)%1500
				run := func(async bool) (distStats, bulkStats em.Stats) {
					cfg := em.Config{BlockBytes: 256, MemBlocks: 24, Disks: 4}
					if backend == "file" {
						cfg.Dir = t.TempDir()
					}
					vol := em.MustVolume(cfg)
					defer vol.Close()
					capacity := syncCap
					if async {
						capacity += 2 * width
					}
					pool := em.NewPool(cfg.BlockBytes, capacity)
					// Pairwise-distinct keys (odd multiplier is a bijection
					// mod 2^64): no all-equal fallback in the distribution
					// sort, strictly increasing keys for the bulk load.
					vs := make([]em.Record, n)
					for i := range vs {
						vs[i] = em.Record{Key: (uint64(i) + seed) * 2654435761, Val: uint64(i)}
					}
					f, err := em.FromSlice(vol, pool, em.RecordCodec{}, vs)
					if err != nil {
						t.Fatal(err)
					}
					vol.Stats().Reset()
					opts := &em.SortOptions{Width: width, ForceFanIn: fanOut, Async: async}
					sorted, err := em.DistributionSort(f, pool, em.Record.Less, opts)
					if err != nil {
						t.Fatal(err)
					}
					distStats = vol.Stats().Snapshot()

					vol.Stats().Reset()
					tr, err := em.BulkLoadBTreeWith(vol, pool, 8, sorted, &em.BulkLoadOptions{Width: width, Async: async})
					if err != nil {
						t.Fatal(err)
					}
					bulkStats = vol.Stats().Snapshot()
					if tr.Len() != int64(n) {
						t.Fatalf("bulk load lost records: %d != %d", tr.Len(), n)
					}
					if err := tr.Close(); err != nil {
						t.Fatal(err)
					}
					if pool.InUse() != 0 {
						t.Fatalf("async=%v: leaked %d frames", async, pool.InUse())
					}
					return distStats, bulkStats
				}
				syncDist, syncBulk := run(false)
				asyncDist, asyncBulk := run(true)
				if !reflect.DeepEqual(syncDist, asyncDist) {
					t.Logf("seed=%d n=%d dist: sync %+v async %+v", seed, n, syncDist, asyncDist)
					return false
				}
				if !reflect.DeepEqual(syncBulk, asyncBulk) {
					t.Logf("seed=%d n=%d bulk: sync %+v async %+v", seed, n, syncBulk, asyncBulk)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
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
	sorted, err := em.SortRecords(f, pool, &em.SortOptions{Width: 4, Async: true})
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
				sorted, err := sortFn(f, pool, em.Record.Less, &em.SortOptions{Width: 2, Async: true})
				if err != nil {
					return nil, err
				}
				defer sorted.Release()
				return em.ToSlice(sorted, pool)
			}
		}
		sortIndex := func() ([]em.Record, error) {
			tr, err := em.SortIndex(f, pool, &em.SortIndexOptions{Width: 2, Async: true})
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
