package em

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// sortIndexConfig is the device shape shared by the SortIndex tests: 16
// records per block, enough memory for the sort's fan-out beside the
// loader's reserved budget, four disks with a small service latency so the
// build waits out its reservations on the disks' timelines.
var sortIndexConfig = Config{BlockBytes: 256, MemBlocks: 64, Disks: 4, DiskLatency: 10 * time.Microsecond}

// permRecords produces n records with distinct shuffled keys.
func permRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]Record, n)
	for i, k := range rng.Perm(n) {
		vs[i] = Record{Key: uint64(k + 1), Val: uint64(i)}
	}
	return vs
}

// builtIndex is what one index build left behind: the tree's contents, the
// Stats the build charged with every node flushed, and the block count of
// the sorted file it wrote (zero for the fused build, which writes none).
type builtIndex struct {
	kvs    [][2]uint64
	st     Stats
	sorted int
}

// buildIndex builds an index over vs on a fresh volume — fused through
// SortIndex, or composed by hand as DistributionSort then BulkLoad — and
// checks that releasing the tree hands back every pool frame and every
// block beyond the input.
func buildIndex(t *testing.T, dir string, vs []Record, opts *SortIndexOptions, composed bool) builtIndex {
	t.Helper()
	cfg := sortIndexConfig
	cfg.Dir = dir
	vol, err := NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	pool := PoolFor(vol)
	if composed {
		// The fused sort sees the pool less the loader's reservation,
		// CacheFrames (8) + 2×Width. DistributionSort holds 2×Width frames
		// for its own sink in either mode, so a pool of MemBlocks − (8 +
		// 2×Width) + 2×Width frames leaves the composed sort exactly as many
		// free frames: both make the same splitting decisions and differ
		// only in the sorted file.
		pool = NewPool(cfg.BlockBytes, cfg.MemBlocks-8)
	}
	f, err := FromSlice(vol, pool, RecordCodec{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	preFree, preLive := pool.Free(), vol.Allocated()-vol.FreeBlocks()
	vol.Stats().Reset()
	var got builtIndex
	var tr *BTree
	if composed {
		sorted, err := DistributionSort(f, pool, Record.Less, &SortOptions{Width: opts.Width, Async: opts.Async})
		if err != nil {
			t.Fatal(err)
		}
		got.sorted = sorted.Blocks()
		tr, err = BulkLoadBTreeWith(vol, pool, 8, sorted,
			&BulkLoadOptions{Width: opts.Width, Async: opts.Async})
		sorted.Release()
		if err != nil {
			t.Fatal(err)
		}
		// SortIndex hands its tree back rehomed, every node flushed.
		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
	} else if tr, err = SortIndex(f, pool, opts); err != nil {
		t.Fatalf("opts=%+v: %v", opts, err)
	}
	got.st = vol.Stats().Snapshot()
	if err := tr.Range(0, ^uint64(0), func(k, v uint64) error {
		got.kvs = append(got.kvs, [2]uint64{k, v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Release(); err != nil {
		t.Fatal(err)
	}
	if pool.Free() != preFree {
		t.Fatalf("opts=%+v composed=%v: pool free %d after release, want %d", opts, composed, pool.Free(), preFree)
	}
	if live := vol.Allocated() - vol.FreeBlocks(); live != preLive {
		t.Fatalf("opts=%+v composed=%v: %d blocks live after release, want %d", opts, composed, live, preLive)
	}
	return got
}

// TestSortIndexFusedMatchesComposition pins what fusing the build saves, on
// both backends and in every stream mode: SortIndex, whose sort emits into
// the bulk loader, builds the same tree as DistributionSort followed by
// BulkLoad at exactly the sorted file's blocks fewer reads and fewer writes
// — the file the composition writes once and reads back once.
func TestSortIndexFusedMatchesComposition(t *testing.T) {
	n := 4000
	vs := permRecords(0x51D, n)
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			dir := ""
			if backend == "file" {
				dir = t.TempDir()
			}
			for _, opts := range []*SortIndexOptions{{Width: 2}, {Width: 2, Async: true}} {
				fused := buildIndex(t, dir, vs, opts, false)
				ref := buildIndex(t, dir, vs, opts, true)
				if len(fused.kvs) != n {
					t.Fatalf("opts=%+v: tree has %d records, want %d", opts, len(fused.kvs), n)
				}
				for j, kv := range fused.kvs {
					if kv[0] != uint64(j+1) || kv != ref.kvs[j] {
						t.Fatalf("opts=%+v: entry %d is %v, composed build has %v", opts, j, kv, ref.kvs[j])
					}
				}
				if want := (n + 15) / 16; ref.sorted != want {
					t.Fatalf("opts=%+v: sorted file has %d blocks, want %d", opts, ref.sorted, want)
				}
				if fused.st.Reads+uint64(ref.sorted) != ref.st.Reads || fused.st.Writes+uint64(ref.sorted) != ref.st.Writes {
					t.Fatalf("opts=%+v: fused r=%d w=%d, composed r=%d w=%d: want both lower by the sorted file's %d blocks",
						opts, fused.st.Reads, fused.st.Writes, ref.st.Reads, ref.st.Writes, ref.sorted)
				}
			}
		})
	}
}

// TestSortIndexBackendsAgree pins the mem==file invariant for the fused
// build: the same build on the file backend charges exactly the reads and
// writes the in-memory simulation counts.
func TestSortIndexBackendsAgree(t *testing.T) {
	vs := permRecords(0xBEEF, 3000)
	opts := &SortIndexOptions{Width: 4, Async: true}
	mem := buildIndex(t, "", vs, opts, false)
	file := buildIndex(t, t.TempDir(), vs, opts, false)
	if len(mem.kvs) != len(file.kvs) {
		t.Fatalf("tree sizes diverge: mem %d file %d", len(mem.kvs), len(file.kvs))
	}
	for i := range mem.kvs {
		if mem.kvs[i] != file.kvs[i] {
			t.Fatalf("entry %d differs across backends", i)
		}
	}
	if mem.st.Reads != file.st.Reads || mem.st.Writes != file.st.Writes {
		t.Fatalf("counted I/Os diverge: mem r=%d w=%d, file r=%d w=%d",
			mem.st.Reads, mem.st.Writes, file.st.Reads, file.st.Writes)
	}
}

// TestSortIndexDuplicateKeysRestoresPool injects the loader's rejection —
// duplicate keys surface as ErrUnsortedInput mid-sort, from inside a base
// case's emit — and asserts the error unwinds the whole build: the sort
// releases its buckets, the loader is aborted, the pool is exactly restored,
// and no volume blocks are stranded.
func TestSortIndexDuplicateKeysRestoresPool(t *testing.T) {
	vs := permRecords(7, 4000)
	vs[1234].Key = vs[3210].Key
	vol, err := NewVolume(sortIndexConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	pool := PoolFor(vol)
	f, err := FromSlice(vol, pool, RecordCodec{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	preFree := pool.Free()
	preLive := vol.Allocated() - vol.FreeBlocks()
	tr, err := SortIndex(f, pool, &SortIndexOptions{Width: 2, Async: true})
	if err == nil {
		t.Fatal("duplicate keys built a tree")
	}
	if !errors.Is(err, ErrUnsortedInput) {
		t.Fatalf("error %v, want ErrUnsortedInput", err)
	}
	if tr != nil {
		t.Fatal("error return kept a tree")
	}
	if pool.Free() != preFree || pool.InUse() != 0 {
		t.Fatalf("pool not restored: free %d (pre %d), in use %d", pool.Free(), preFree, pool.InUse())
	}
	if live := vol.Allocated() - vol.FreeBlocks(); live != preLive {
		t.Fatalf("stranded %d volume blocks", live-preLive)
	}
}

// TestSortIndexCrashSweep crashes the volume after every possible number of
// the build's transfers, 0 up to one short of the clean build's total, on
// both backends, with nil options (width 1, one leaf per batch) and at
// width 2 reading ahead. The sweep so passes through the sampling and
// partition passes, base-case reads and their emits into the loader, a leaf
// batch in flight, cache evictions of internal nodes, and the flush of the
// internal levels; every crash point must surface ErrFaulted and leave the
// pool's free frames and the volume's live blocks exactly as they were
// before the call.
func TestSortIndexCrashSweep(t *testing.T) {
	vs := permRecords(0xC2A5, 3000)
	// run builds on a fresh volume under plan and reports the build's
	// transfers, whether it kept a tree, its error, and whether the pool's
	// free frames and the live blocks came back to their pre-call values.
	run := func(cfg Config, plan *FaultPlan, opts *SortIndexOptions) (ios uint64, kept bool, err error, restored bool) {
		cfg.Fault = plan
		vol, err := NewVolume(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer vol.Close()
		pool := PoolFor(vol)
		f, err := FromSlice(vol, pool, RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		free, live := pool.Free(), vol.Allocated()-vol.FreeBlocks()
		vol.Stats().Reset()
		tr, err := SortIndex(f, pool, opts)
		ios = vol.Stats().Total()
		if tr != nil {
			tr.Close()
		}
		return ios, tr != nil, err, pool.Free() == free && vol.Allocated()-vol.FreeBlocks() == live
	}
	base := Config{BlockBytes: 512, MemBlocks: 48, Disks: 2}
	// The input file takes one write per block before the build starts.
	input := int64((len(vs) + 31) / 32)
	for _, backend := range []string{"mem", "file"} {
		for _, c := range []struct {
			name string
			opts *SortIndexOptions
		}{{"nil", nil}, {"width=2", &SortIndexOptions{Width: 2, Async: true}}} {
			t.Run(backend+"/"+c.name, func(t *testing.T) {
				cfg := base
				if backend == "file" {
					cfg.Dir = t.TempDir()
				}
				opts := c.opts
				total, kept, err, _ := run(cfg, nil, opts)
				if err != nil || !kept {
					t.Fatalf("clean build: %v", err)
				}
				t.Logf("sweeping %d crash points", total)
				for k := int64(0); k < int64(total); k++ {
					_, kept, err, restored := run(cfg, &FaultPlan{Seed: 1, FailAfter: input + k}, opts)
					if !errors.Is(err, ErrFaulted) || kept {
						t.Fatalf("crash after %d of %d transfers: kept a tree %v, err %v, want ErrFaulted", k, total, kept, err)
					}
					if !restored {
						t.Fatalf("crash after %d of %d transfers: pool frames or live blocks not restored", k, total)
					}
				}
			})
		}
	}
}
