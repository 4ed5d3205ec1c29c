package shard

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"em/internal/index"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/store"
	"em/internal/stream"
)

// perRecord hides a shard scanner's NextBatch, so the stitched scanner
// reads it one record at a time.
type perRecord struct{ index.Scanner }

// hideBatches makes every shard of a stitched scan a per-record source,
// whether its scanner is open already (a Store's) or opens lazily (a
// Tree's).
func hideBatches(sc index.Scanner) *Scanner {
	s := sc.(*Scanner)
	for i := range s.segs {
		sg := &s.segs[i]
		if sg.src != nil {
			sg.src = perRecord{sg.src}
			continue
		}
		open := sg.open
		sg.open = func() (index.Scanner, error) {
			src, err := open()
			if err != nil {
				return nil, err
			}
			return perRecord{src}, nil
		}
	}
	return s
}

// ioCount is the reads and parallel steps of a piece of work.
type ioCount struct{ reads, steps uint64 }

// coldScan drains a stitched scan of [lo, hi] from cold shard caches of 8
// frames, with NextBatch hidden when perRec is set, and returns its
// records with the reads and steps it took.
func coldScan(t *testing.T, tr *Tree, pools []*pdm.Pool, lo, hi uint64, perRec bool) ([]record.Record, ioCount) {
	t.Helper()
	for i, p := range pools {
		if err := tr.Shard(i).Rehome(p, 8); err != nil {
			t.Fatal(err)
		}
	}
	before := tr.Stats()
	sc, err := tr.Scan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if perRec {
		sc = hideBatches(sc)
	}
	recs := drainScanner(t, sc)
	after := tr.Stats()
	return recs, ioCount{after.Reads - before.Reads, after.Steps - before.Steps}
}

// frees reads every pool's free frame count.
func frees(pools []*pdm.Pool) []int {
	out := make([]int, len(pools))
	for i, p := range pools {
		out[i] = p.Free()
	}
	return out
}

// sequential returns the records k -> 3k for k in [1, n].
func sequential(n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: uint64(i + 1), Val: uint64(3 * (i + 1))}
	}
	return recs
}

// TestShardedScanReversedRange: a range with lo > hi, across shards or
// inside one, returns no records and no error from a sharded Tree and a
// sharded Store on both backends, and takes no frame from any pool.
func TestShardedScanReversedRange(t *testing.T) {
	splits := []uint64{250, 500, 750}
	recs := sequential(1000)
	forEachBackend(t, func(t *testing.T, file bool) {
		for _, tc := range []struct {
			name string
			open func(t *testing.T) (index.Index, []*pdm.Pool)
		}{
			{"tree", func(t *testing.T) (index.Index, []*pdm.Pool) {
				vols, pools := shardVolumes(t, 4, file)
				return buildShardedTree(t, vols, pools, splits, recs), pools
			}},
			{"store", func(t *testing.T) (index.Index, []*pdm.Pool) {
				vols, pools := shardVolumes(t, 4, file)
				st, err := OpenStore(vols, pools, &StoreOptions{Splits: splits, Store: storeConfig()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				for _, r := range recs {
					if err := st.Insert(r.Key, r.Val); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Drain(); err != nil {
					t.Fatal(err)
				}
				return st, pools
			}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				ix, pools := tc.open(t)
				for _, r := range [][2]uint64{{600, 100}, {300, 260}, {^uint64(0), 0}} {
					free := frees(pools)
					sc, err := ix.Scan(r[0], r[1])
					if err != nil {
						t.Fatalf("Scan(%d, %d): %v", r[0], r[1], err)
					}
					if got := frees(pools); !reflect.DeepEqual(got, free) {
						t.Fatalf("Scan(%d, %d) took frames: %v free, %v before", r[0], r[1], got, free)
					}
					if got := drainScanner(t, sc); len(got) != 0 {
						t.Fatalf("Scan(%d, %d) returned %d records", r[0], r[1], len(got))
					}
					if got := frees(pools); !reflect.DeepEqual(got, free) {
						t.Fatalf("Scan(%d, %d): %v free after Close, %v before", r[0], r[1], got, free)
					}
				}
			})
		}
	})
}

// TestShardedScanFaultInLaterShard fails a leaf read in the middle of the
// last shard's part of a stitched scan, a leaf at a time and a record at a
// time, and then the opening of the last shard's scanner on a pool with no
// frame left: every record before the fault arrives, the error names the
// shard and sticks, and Close returns every pool to its count before the
// scan.
func TestShardedScanFaultInLaterShard(t *testing.T) {
	splits := []uint64{1000, 2000}
	recs := sequential(3000)
	const early = 1999 // keys 1..1999 live in shards 0 and 1
	build := func(fault *pdm.FaultPlan) (*Tree, []*pdm.Volume, []*pdm.Pool) {
		vols := make([]*pdm.Volume, 3)
		pools := make([]*pdm.Pool, 3)
		for i := range vols {
			cfg := testConfig()
			if i == 2 {
				cfg.Fault = fault
			}
			vols[i] = pdm.MustVolume(cfg)
			t.Cleanup(func() { vols[i].Close() })
			pools[i] = pdm.PoolFor(vols[i])
		}
		return buildShardedTree(t, vols, pools, splits, recs), vols, pools
	}
	// A fault-free twin counts the last shard's transfers up to the scan
	// and the reads of the scan.
	clean, vols, pools := build(nil)
	st := vols[2].Stats().Snapshot()
	pre := int64(st.Reads + st.Writes)
	got, _ := coldScan(t, clean, pools, 0, ^uint64(0), false)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("clean scan returned %d records, want %d", len(got), len(recs))
	}
	scan := int64(vols[2].Stats().Snapshot().Reads - st.Reads)
	if scan < 8 {
		t.Fatalf("the last shard's scan read %d blocks; the test needs leaves to fail", scan)
	}

	for _, perRec := range []bool{false, true} {
		tr, _, pools := build(&pdm.FaultPlan{FailAfter: pre + scan/2})
		free := frees(pools)
		sc, err := tr.Scan(0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		if perRec {
			sc = hideBatches(sc)
		}
		var out []record.Record
		for {
			r, ok, err2 := sc.Next()
			if err2 != nil {
				err = err2
				break
			}
			if !ok {
				t.Fatalf("perRec=%v: the scan ended on a dead disk", perRec)
			}
			out = append(out, r)
		}
		if !errors.Is(err, pdm.ErrFaulted) || !strings.Contains(err.Error(), "shard 2:") {
			t.Fatalf("perRec=%v: scan failed with %v, want shard 2's ErrFaulted", perRec, err)
		}
		if len(out) <= early || len(out) >= len(recs) || !reflect.DeepEqual(out, recs[:len(out)]) {
			t.Fatalf("perRec=%v: %d records before the fault, want a prefix past shard 1", perRec, len(out))
		}
		if _, ok, err2 := sc.Next(); ok || err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("perRec=%v: Next after the fault: ok=%v err=%v", perRec, ok, err2)
		}
		sc.Close()
		if got := frees(pools); !reflect.DeepEqual(got, free) {
			t.Fatalf("perRec=%v: %v free after Close, %v before the scan", perRec, got, free)
		}
	}

	// The last shard's scanner cannot take its frames.
	free := frees(pools)
	hog, err := pools[2].AllocN(pools[2].Free())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := clean.Scan(0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err2 := sc.Next()
		if err2 != nil {
			err = err2
			break
		}
		if !ok {
			t.Fatal("the scan ended without the last shard")
		}
		n++
	}
	if n != early || !errors.Is(err, pdm.ErrNoFrames) || !strings.Contains(err.Error(), "shard 2:") {
		t.Fatalf("after %d records the scan failed with %v, want shard 2's ErrNoFrames after %d", n, err, early)
	}
	if _, ok, err2 := sc.Next(); ok || err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("Next after the failed open: ok=%v err=%v", ok, err2)
	}
	sc.Close()
	pdm.ReleaseAll(hog)
	if got := frees(pools); !reflect.DeepEqual(got, free) {
		t.Fatalf("%v free after Close, %v before the scan", got, free)
	}
}

// TestShardedScanCloseMidBatch closes stitched scans part-way through a
// leaf's batch, over trees and over stores, a leaf at a time and a record
// at a time: every pool is back at its count before the scan, and the
// scanner reports stream.ErrClosed.
func TestShardedScanCloseMidBatch(t *testing.T) {
	splits := []uint64{1000, 2000}
	recs := sequential(3000)
	vols, pools := shardVolumes(t, 3, false)
	tr := buildShardedTree(t, vols, pools, splits, recs)
	svols, spools := shardVolumes(t, 3, false)
	st, err := OpenStore(svols, spools, &StoreOptions{Splits: splits, Store: store.Config{FrontOps: 1 << 20, CacheFrames: 4, Width: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, r := range recs {
		if err := st.Insert(r.Key, r.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		ix    index.Index
		pools []*pdm.Pool
	}{{"tree", tr, pools}, {"store", st, spools}} {
		for _, perRec := range []bool{false, true} {
			for _, stop := range []int{1, 5, 1003, 2999} {
				free := frees(tc.pools)
				sc, err := tc.ix.Scan(0, ^uint64(0))
				if err != nil {
					t.Fatal(err)
				}
				if perRec {
					sc = hideBatches(sc)
				}
				for i := 0; i < stop; i++ {
					r, ok, err := sc.Next()
					if err != nil || !ok || r != recs[i] {
						t.Fatalf("%s perRec=%v: record %d is %v (ok=%v err=%v), want %v", tc.name, perRec, i, r, ok, err, recs[i])
					}
				}
				// A tree shard's scanner is read a leaf at a time unless
				// hidden; a store shard's always a record at a time.
				s := sc.(*Scanner)
				if batched := tc.name == "tree" && !perRec; (s.batch != nil) != batched ||
					batched && stop == 5 && s.pos >= len(s.buf) {
					t.Fatalf("%s perRec=%v after %d records: batch source %v, batch at %d of %d",
						tc.name, perRec, stop, s.batch != nil, s.pos, len(s.buf))
				}
				sc.Close()
				if got := frees(tc.pools); !reflect.DeepEqual(got, free) {
					t.Fatalf("%s perRec=%v closed after %d records: %v free, %v before", tc.name, perRec, stop, got, free)
				}
				if _, ok, err := sc.Next(); ok || !errors.Is(err, stream.ErrClosed) {
					t.Fatalf("%s perRec=%v: Next after Close: ok=%v err=%v", tc.name, perRec, ok, err)
				}
			}
		}
	}
}
