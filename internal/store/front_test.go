package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"em/internal/btree"
	"em/internal/pdm"
)

// TestStoreWritePathDoesNoIO pins the write front's cost. 10 000 random
// inserts and deletes — repeated keys and deletes of absent keys among
// them — below the seal threshold touch no block on either backend. The
// Drain that follows writes each block of the new generation once, plus
// the empty first generation's root, which the drain's read session
// flushes before it scans; it reads that root back and Warm reads the new
// internal nodes. Its counters, pinned here, are identical on both
// backends.
func TestStoreWritePathDoesNoIO(t *testing.T) {
	const (
		script = 10000
		keys   = 3000
		// The drain's counted transfers at this script and geometry: a
		// 77-block generation of height 3 loaded at drain width 1.
		drainReads  = 5
		drainWrites = 78
		drainSteps  = 83
	)
	var drained [2]pdm.Stats
	for b, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			vc := testConfig()
			if backend == "file" {
				vc.Dir = t.TempDir()
			}
			vol := pdm.MustVolume(vc)
			defer vol.Close()
			cfg := storeConfig()
			cfg.FrontOps = script + 1
			s, err := Open(vol, pdm.PoolFor(vol), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			opened := s.Stats()
			rng := rand.New(rand.NewSource(25))
			ref := map[uint64]uint64{}
			for i := 0; i < script; i++ {
				k := uint64(rng.Intn(keys))
				if rng.Intn(4) == 0 {
					err = s.Delete(k)
					delete(ref, k)
				} else {
					ref[k] = uint64(i)
					err = s.Insert(k, uint64(i))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Stats(); !reflect.DeepEqual(got, opened) || got.Reads+got.Writes+got.Steps != 0 {
				t.Fatalf("the write path did I/O: %v, at open %v", &got, &opened)
			}
			if got := s.FrontOps(); got != script {
				t.Fatalf("FrontOps() = %d, want every accepted op (%d)", got, script)
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			drained[b] = s.Stats()
			st := drained[b]
			live := vol.Allocated() - vol.FreeBlocks()
			if st.Writes != uint64(live)+1 {
				t.Errorf("drain wrote %d blocks for a %d-block generation, want one each plus the old root", st.Writes, live)
			}
			if st.Reads != drainReads || st.Writes != drainWrites || st.Steps != drainSteps {
				t.Errorf("drain counters %v, want reads=%d writes=%d steps=%d", &st, drainReads, drainWrites, drainSteps)
			}
			if got := scanAll(t, s); !reflect.DeepEqual(got, ref) {
				t.Fatalf("after the drain the store holds %d keys, want %d", len(got), len(ref))
			}
		})
	}
	if !reflect.DeepEqual(drained[0], drained[1]) {
		t.Fatalf("drain counters differ: mem %v, file %v", &drained[0], &drained[1])
	}
}

// TestStoreDrainCrashLeaksNothing crashes the volume in the middle of a
// drain's bulk load over a non-empty generation, on both backends. The
// failed drain must hand back every frame it drew and free every block of
// the partial tree — the old generation's blocks are all that stays
// allocated — and the buffered operations keep serving from memory. Close
// then returns everything.
func TestStoreDrainCrashLeaksNothing(t *testing.T) {
	const n = 2000
	// load builds generation 2 from keys [0, n) and buffers an update of
	// every third key and a delete of every seventh.
	load := func(t *testing.T, vol *pdm.Volume) *Store {
		t.Helper()
		cfg := storeConfig()
		cfg.FrontOps = 1 << 20
		s, err := Open(vol, pdm.PoolFor(vol), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < n; k++ {
			if err := s.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < n; k += 3 {
			if err := s.Insert(k, k+n); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < n; k += 7 {
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	// Fault-free twin: transfers up to the second drain, then through it.
	// Scan reads and leaf writes interleave through the whole bulk load;
	// what comes after it (the loader's flush at Rehome, Warm's reads)
	// touches only the new tree's few internal nodes, so the middle
	// transfer of the drain is one of the bulk load's.
	dry := pdm.MustVolume(testConfig())
	s := load(t, dry)
	pre := dry.Stats().Snapshot()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	post := dry.Stats().Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dry.Close()
	preOps := int64(pre.Reads + pre.Writes)
	drainOps := int64(post.Reads+post.Writes) - preOps

	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			vc := testConfig()
			if backend == "file" {
				vc.Dir = t.TempDir()
			}
			vc.Fault = &pdm.FaultPlan{Seed: 25, FailAfter: preOps + drainOps/2}
			vol, err := pdm.NewVolume(vc)
			if err != nil {
				t.Fatal(err)
			}
			defer vol.Close()
			pool := pdm.PoolFor(vol)
			s := load(t, vol)
			free, live := pool.Free(), vol.Allocated()-vol.FreeBlocks()
			if err := s.Drain(); !errors.Is(err, pdm.ErrFaulted) {
				t.Fatalf("Drain through a mid-load crash = %v, want ErrFaulted", err)
			}
			if got := pool.Free(); got != free {
				t.Errorf("failed drain kept frames: %d free, %d before", got, free)
			}
			if got := vol.Allocated() - vol.FreeBlocks(); got != live {
				t.Errorf("failed drain leaked blocks: %d live, %d before", got, live)
			}
			// Buffered operations answer from memory; the dead volume is
			// never asked.
			for _, k := range []uint64{3, 7, 21} {
				v, ok, err := s.Get(k)
				if err != nil || ok != (k%7 != 0) || (ok && v != k+n) {
					t.Errorf("Get(%d) after the failed drain = (%d, %v, %v)", k, v, ok, err)
				}
			}
			s.Close() // the volume is dead: the error may be anything
			if got := pool.Free(); got != pool.Capacity() {
				t.Errorf("close kept frames: %d of %d free", got, pool.Capacity())
			}
			if free, alloc := vol.FreeBlocks(), vol.Allocated(); free != alloc {
				t.Errorf("close leaked blocks: %d of %d free", free, alloc)
			}
			if !vol.Fault().Crashed() {
				t.Error("the fault plan never reached its crash point")
			}
		})
	}
}

// TestStoreDrainFitsReservation drains a full front at the repo
// benchmark's store-file geometry — 4 KiB blocks, two disks, a 32-frame
// cache, fronts of 32 768 ops — on the drain reservation Open makes, which
// must then be exactly one session and one loader at drain width 1,
// 2·32 + 4·1 frames. A reservation too small for the drain's session, scan
// and loader fails the drain with ErrNoFrames.
func TestStoreDrainFitsReservation(t *testing.T) {
	forEachBackend(t, pdm.Config{BlockBytes: 4096, MemBlocks: 512, Disks: 2}, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		const front = 32768
		s, err := Open(vol, pool, Config{FrontOps: 1 << 40, CacheFrames: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got, want := s.drainPool.Capacity(), 2*32+4*1; got != want {
			t.Fatalf("drain reservation %d frames, want %d", got, want)
		}
		rng := rand.New(rand.NewSource(25))
		for round := 0; round < 2; round++ {
			for i := 0; i < front; i++ {
				if err := s.Insert(rng.Uint64(), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Drain(); err != nil {
				t.Fatalf("drain %d: %v", round+1, err)
			}
		}
		if got := s.drainPool.Free(); got != s.drainPool.Capacity() {
			t.Fatalf("drain kept %d reserved frames", s.drainPool.Capacity()-got)
		}
	})
}

// TestStoreDrainReservationIsExact opens stores at W = D ∈ {1, 2, 4, 8} on
// pools sized around the drain reservation, btree.SessionFrames plus
// btree.LoaderFrames at the drain width w, 2·CacheFrames + 4·w frames:
//   - one frame short of it, Open fails with ErrNoFrames and leaks nothing;
//   - at it plus the foreground's two generation caches (the retiring one
//     and its successor), Open succeeds, and so do a drain that builds a
//     tree with more internal nodes than a cache holds and a second drain
//     that scans that tree, and the drain pool's peak is its capacity:
//     no reserved frame goes unused.
func TestStoreDrainReservationIsExact(t *testing.T) {
	const cacheFrames, keys = 4, 20000
	for _, width := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("W=%d", width), func(t *testing.T) {
			cfg := pdm.Config{BlockBytes: 256, MemBlocks: 8, Disks: width}
			forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, _ *pdm.Pool) {
				sc := Config{FrontOps: 1 << 40, CacheFrames: cacheFrames, Width: width}
				w := sc.drainWidth()
				reservation := btree.SessionFrames(cacheFrames, w) + btree.LoaderFrames(cacheFrames, w)
				if reservation != 2*cacheFrames+4*w {
					t.Fatalf("drain reservation %d frames, want 2·%d + 4·%d", reservation, cacheFrames, w)
				}
				short := pdm.NewPool(cfg.BlockBytes, reservation-1)
				live := vol.Allocated() - vol.FreeBlocks()
				if _, err := Open(vol, short, sc); !errors.Is(err, pdm.ErrNoFrames) {
					t.Fatalf("Open one frame short = %v, want ErrNoFrames", err)
				}
				if short.InUse() != 0 || vol.Allocated()-vol.FreeBlocks() != live {
					t.Fatalf("failed Open kept %d frames and %d blocks", short.InUse(), vol.Allocated()-vol.FreeBlocks()-live)
				}

				pool := pdm.NewPool(cfg.BlockBytes, reservation+2*cacheFrames)
				s, err := Open(vol, pool, sc)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(width)))
				for round, n := range []int{keys, keys / 20} {
					for i := 0; i < n; i++ {
						if err := s.Insert(rng.Uint64(), uint64(i)); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Drain(); err != nil {
						t.Fatalf("drain %d: %v", round+1, err)
					}
				}
				if got, want := s.drainPool.Peak(), s.drainPool.Capacity(); got != want {
					t.Errorf("drain pool peak %d of %d reserved frames", got, want)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if pool.InUse() != 0 {
					t.Errorf("close kept %d frames", pool.InUse())
				}
				if got := vol.Allocated() - vol.FreeBlocks(); got != live {
					t.Errorf("close leaked %d blocks", got-live)
				}
			})
		})
	}
}
