package btree

import (
	"errors"
	"slices"
	"testing"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// sortedRecords produces n records with strictly increasing keys.
func sortedRecords(n int) []record.Record {
	vs := make([]record.Record, n)
	for i := range vs {
		vs[i] = record.Record{Key: uint64(i + 1), Val: uint64(i)}
	}
	return vs
}

// TestBulkLoadAsyncMatchesSync bulk-loads the same sorted file from a pool
// with room for the input reader ahead (forecasting read-ahead, 2×Width
// frames beyond the loader's budget) and from one a frame short of it, so
// the reader fetches on demand, and asserts identical trees and identical
// I/O counters: the reader's depth changes overlap, never the counted
// model or the built index.
func TestBulkLoadAsyncMatchesSync(t *testing.T) {
	const cacheFrames = 8
	for _, width := range []int{1, 2} {
		for _, n := range []int{0, 1, 100, 3000} {
			run := func(frames int) ([][2]uint64, pdm.Stats, int) {
				vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 24, Disks: 4})
				f, err := stream.FromSlice(vol, pdm.PoolFor(vol), record.RecordCodec{}, sortedRecords(n))
				if err != nil {
					t.Fatal(err)
				}
				pool := pdm.NewPool(256, frames)
				vol.Stats().Reset()
				tr, err := BulkLoad(vol, pool, cacheFrames, f, &BulkLoadOptions{Width: width})
				if err != nil {
					t.Fatal(err)
				}
				st := vol.Stats().Snapshot()
				var kvs [][2]uint64
				if err := tr.Range(0, ^uint64(0), func(k, v uint64) error {
					kvs = append(kvs, [2]uint64{k, v})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if tr.Len() != int64(n) {
					t.Fatalf("%d frames: tree has %d keys, want %d", frames, tr.Len(), n)
				}
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				if pool.InUse() != 0 {
					t.Fatalf("%d frames: leaked %d frames", frames, pool.InUse())
				}
				return kvs, st, pool.Peak()
			}
			roomy := cacheFrames + 4*width
			aKVs, aSt, aPeak := run(roomy)
			dKVs, dSt, dPeak := run(roomy - 1)
			if len(aKVs) != n || !slices.Equal(aKVs, dKVs) {
				t.Fatalf("w=%d n=%d: trees differ or lost keys: %d and %d entries", width, n, len(aKVs), len(dKVs))
			}
			if aSt.Reads != dSt.Reads || aSt.Writes != dSt.Writes || aSt.Steps != dSt.Steps {
				t.Fatalf("w=%d n=%d: stats differ: ahead %+v, on demand %+v", width, n, aSt, dSt)
			}
			// A long load peaks with its reader open; a short one may peak
			// later, building its internal levels.
			if n == 3000 && aPeak != dPeak+width {
				t.Fatalf("w=%d n=%d: pool peak %d ahead, %d on demand, want a difference of %d", width, n, aPeak, dPeak, width)
			}
		}
	}
}

// TestBulkLoadErrorRestoresPool injects every reachable failure into the
// bulk loader — unsorted input, duplicate keys, and a pool exhausted
// mid-load — at widths 1 and 2, and asserts Pool.Free() is
// exactly its pre-call value afterwards: no leaked frames, no page left
// pinned, no cache holding on to the aborted tree.
func TestBulkLoadErrorRestoresPool(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 64, Disks: 1})
	build := pdm.PoolFor(vol)

	unsorted := sortedRecords(500)
	unsorted[250], unsorted[251] = unsorted[251], unsorted[250]
	dup := sortedRecords(500)
	dup[300].Key = dup[299].Key

	files := map[string][]record.Record{
		"unsorted": unsorted,
		"dup":      dup,
		"starved":  sortedRecords(5000),
	}
	for name, vs := range files {
		f, err := stream.FromSlice(vol, build, record.RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []*BulkLoadOptions{
			nil,
			{Width: 2},
		} {
			// 12 frames suffice for the reader and a working cache on the
			// sorted-violation cases; the "starved" case asks for a 64-page
			// cache that exhausts the pool once enough leaves are resident.
			capacity, cacheFrames := 12, 8
			if name == "starved" {
				cacheFrames = 64
			}
			pool := pdm.NewPool(256, capacity)
			preFree := pool.Free()
			preLive := vol.Allocated() - vol.FreeBlocks()
			tr, err := BulkLoad(vol, pool, cacheFrames, f, opts)
			if err == nil {
				t.Fatalf("%s opts=%+v: bulk load succeeded", name, opts)
			}
			if tr != nil {
				t.Fatalf("%s opts=%+v: error return kept a tree", name, opts)
			}
			if (name == "unsorted" || name == "dup") && !errors.Is(err, ErrUnsortedInput) {
				t.Fatalf("%s opts=%+v: error %v, want ErrUnsortedInput", name, opts, err)
			}
			if pool.Free() != preFree || pool.InUse() != 0 {
				t.Fatalf("%s opts=%+v: pool not restored: free %d (pre %d), in use %d",
					name, opts, pool.Free(), preFree, pool.InUse())
			}
			if live := vol.Allocated() - vol.FreeBlocks(); live != preLive {
				t.Fatalf("%s opts=%+v: stranded %d volume blocks", name, opts, live-preLive)
			}
		}
		f.Release()
	}
	if build.InUse() != 0 {
		t.Fatalf("builder pool leaked %d frames", build.InUse())
	}
}
