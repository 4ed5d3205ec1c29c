package buffertree

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// forEachBackend runs fn against a memory-backed and a file-backed volume
// of identical shape, mirroring the pdm, stream, and btree harnesses.
func forEachBackend(t *testing.T, cfg pdm.Config, fn func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		vol := pdm.MustVolume(cfg)
		defer vol.Close()
		fn(t, vol, pdm.PoolFor(vol))
	})
	t.Run("file", func(t *testing.T) {
		c := cfg
		c.Dir = t.TempDir()
		vol := pdm.MustVolume(c)
		defer func() {
			if err := vol.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		fn(t, vol, pdm.PoolFor(vol))
	})
}

// refOp is the reference resolution: the newest op per key.
type refOp struct {
	val uint64
	del bool
}

// driveOps plays a deterministic duplicate-heavy insert/delete mix that
// forces several splitLeaf and distribute repartitions at the test shape.
func driveOps(t *testing.T, tr *Tree, n int, seed int64, keySpace uint64) map[uint64]refOp {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := map[uint64]refOp{}
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(int(keySpace)))
		if rng.Intn(4) == 0 {
			if err := tr.Delete(k); err != nil {
				t.Fatal(err)
			}
			ref[k] = refOp{del: true}
		} else {
			v := uint64(i)
			if err := tr.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			ref[k] = refOp{val: v}
		}
	}
	return ref
}

// TestSealOpsMatchesReference checks the run handed over by SealOps: one
// resolved op per key in strictly increasing key order, tombstones kept,
// and every block back after ReleaseBuffers and Run.Release.
func TestSealOpsMatchesReference(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 96, MemBlocks: 24, Disks: 1}
	forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		tr, err := New(vol, pool, Config{Fanout: 3, BufferRecords: 8})
		if err != nil {
			t.Fatal(err)
		}
		const keySpace = 60
		ref := driveOps(t, tr, 1200, 11, keySpace)
		run, err := tr.SealOps()
		if err != nil {
			t.Fatal(err)
		}
		if run.Len() != int64(len(ref)) {
			t.Fatalf("run holds %d ops, want %d", run.Len(), len(ref))
		}
		// The run file is sorted, resolved, and complete.
		got := map[uint64]Op{}
		last := int64(-1)
		if err := stream.ForEach(run.File(), pool, func(o Op) error {
			if int64(o.Key) <= last {
				t.Fatalf("run not strictly sorted: %d after %d", o.Key, last)
			}
			last = int64(o.Key)
			got[o.Key] = o
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for k, want := range ref {
			o, ok := got[k]
			if !ok || o.Deleted() != want.del || (!want.del && o.Val != want.val) {
				t.Fatalf("run[%d] = %+v (present %v), want %+v", k, o, ok, want)
			}
		}
		tr.ReleaseBuffers()
		run.Release()
		if pool.InUse() != 0 {
			t.Fatalf("leaked %d frames", pool.InUse())
		}
		if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
			t.Fatalf("leaked %d blocks", live)
		}
	})
}

// TestSealLeakSafety sweeps a starved pool across Insert/Seal: whatever
// point the budget runs out at, every frame must come back (Pool.Free
// exactly restored) and, after ReleaseBuffers, every block too. This is
// the satellite hardening of the Seal/drain/flush error paths.
func TestSealLeakSafety(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 96, MemBlocks: 16, Disks: 1}
	forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		for hostages := 0; hostages < cfg.MemBlocks; hostages++ {
			taken, err := pool.AllocN(hostages)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer pdm.ReleaseAll(taken)
				tr, err := New(vol, pool, Config{Fanout: 3, BufferRecords: 8})
				if err != nil {
					return // not even a root writer fits; nothing to leak
				}
				failed := false
				for i := 0; i < 400 && !failed; i++ {
					k := uint64(i % 25)
					if i%5 == 0 {
						failed = tr.Delete(k) != nil
					} else {
						failed = tr.Insert(k, uint64(i)) != nil
					}
				}
				if !failed {
					if out, err := tr.Seal(); err == nil {
						out.Release()
					} else {
						// Failed Seal keeps buffers; retry must also fail
						// or succeed cleanly, then release.
						if out2, err2 := tr.Seal(); err2 == nil {
							out2.Release()
						}
					}
				}
				tr.ReleaseBuffers()
				if got := pool.InUse(); got != hostages {
					t.Fatalf("hostages=%d: pool.InUse=%d after teardown", hostages, got)
				}
				if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
					t.Fatalf("hostages=%d: %d live blocks after teardown", hostages, live)
				}
			}()
		}
	})
}

// TestSealOpsLeakSafety is the same sweep through the SealOps path.
func TestSealOpsLeakSafety(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 96, MemBlocks: 16, Disks: 1}
	forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		for hostages := 0; hostages < cfg.MemBlocks; hostages++ {
			taken, err := pool.AllocN(hostages)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer pdm.ReleaseAll(taken)
				tr, err := New(vol, pool, Config{Fanout: 3, BufferRecords: 8})
				if err != nil {
					return
				}
				failed := false
				for i := 0; i < 400 && !failed; i++ {
					failed = tr.Insert(uint64(i%25), uint64(i)) != nil
				}
				if !failed {
					if run, err := tr.SealOps(); err == nil {
						run.Release()
					}
				}
				tr.ReleaseBuffers()
				if got := pool.InUse(); got != hostages {
					t.Fatalf("hostages=%d: pool.InUse=%d after teardown", hostages, got)
				}
				if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
					t.Fatalf("hostages=%d: %d live blocks after teardown", hostages, live)
				}
			}()
		}
	})
}

// TestStatsIdenticalAcrossBackends replays one workload on the simulated
// and file backends and asserts byte-identical counted I/O — the
// backend-abstraction invariant, now holding through the buffer tree's
// flush cascades and seal drains too.
func TestStatsIdenticalAcrossBackends(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 96, MemBlocks: 24, Disks: 2}
	run := func(vol *pdm.Volume) (reads, writes, steps uint64) {
		pool := pdm.PoolFor(vol)
		tr, err := New(vol, pool, Config{Fanout: 3, BufferRecords: 8})
		if err != nil {
			t.Fatal(err)
		}
		driveOps(t, tr, 1000, 3, 40)
		run, err := tr.SealOps()
		if err != nil {
			t.Fatal(err)
		}
		tr.ReleaseBuffers()
		run.Release()
		s := vol.Stats()
		return atomic.LoadUint64(&s.Reads), atomic.LoadUint64(&s.Writes), atomic.LoadUint64(&s.Steps)
	}
	mem := pdm.MustVolume(cfg)
	defer mem.Close()
	r1, w1, s1 := run(mem)
	fcfg := cfg
	fcfg.Dir = t.TempDir()
	file := pdm.MustVolume(fcfg)
	defer file.Close()
	r2, w2, s2 := run(file)
	if r1 != r2 || w1 != w2 || s1 != s2 {
		t.Fatalf("stats diverge across backends: mem (r=%d w=%d s=%d) file (r=%d w=%d s=%d)",
			r1, w1, s1, r2, w2, s2)
	}
	if r1 == 0 || w1 == 0 {
		t.Fatal("workload charged no I/O; the comparison is vacuous")
	}
}

// TestQuickSealOpsBothBackends is the satellite-2 property strengthened to
// the online path: random op sequences resolve last-writer-wins through
// SealOps (tombstones kept), on both backends.
func TestQuickSealOpsBothBackends(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 96, MemBlocks: 12, Disks: 1}
	forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		type qop struct {
			Key uint64
			Val uint64
			Del bool
		}
		f := func(ops []qop) bool {
			tr, err := New(vol, pool, Config{Fanout: 3, BufferRecords: 16})
			if err != nil {
				return false
			}
			ref := map[uint64]refOp{}
			for _, o := range ops {
				k := o.Key % 40
				if o.Del {
					if tr.Delete(k) != nil {
						return false
					}
					ref[k] = refOp{del: true}
				} else {
					if tr.Insert(k, o.Val) != nil {
						return false
					}
					ref[k] = refOp{val: o.Val}
				}
			}
			run, err := tr.SealOps()
			if err != nil {
				return false
			}
			defer func() {
				tr.ReleaseBuffers()
				run.Release()
			}()
			if run.Len() != int64(len(ref)) {
				return false
			}
			good := true
			if err := stream.ForEach(run.File(), pool, func(o Op) error {
				want, ok := ref[o.Key]
				if !ok || o.Deleted() != want.del || (!want.del && o.Val != want.val) {
					good = false
				}
				return nil
			}); err != nil {
				return false
			}
			return good
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSealReleasesBlocks: the offline Seal path now returns every buffer
// block on success, leaving only the output file live.
func TestSealReleasesBlocks(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 96, MemBlocks: 16, Disks: 1})
	pool := pdm.PoolFor(vol)
	tr, err := New(vol, pool, Config{Fanout: 3, BufferRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Insert(uint64(i%60), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := tr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if live := vol.Allocated() - vol.FreeBlocks(); live != int64(out.Blocks()) {
		t.Fatalf("%d live blocks after Seal, want only the %d output blocks", live, out.Blocks())
	}
	var prev record.Record
	first := true
	if err := stream.ForEach(out, pool, func(r record.Record) error {
		if !first && r.Key <= prev.Key {
			t.Fatalf("seal output unsorted")
		}
		prev, first = r, false
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	out.Release()
	if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
		t.Fatalf("%d live blocks after releasing output", live)
	}
}
