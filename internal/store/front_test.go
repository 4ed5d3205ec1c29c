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

// TestStoreDrainWriteCost pins the drains' block transfers per drained
// operation on a fixed single-client script, on both backends: a preload
// of n keys drained explicitly in rounds, then three fronts of F ops
// (overwrites and deletes of preloaded keys, fresh inserts), each sealed by
// the threshold and drained before the next begins, then a tail of ops
// and the explicit Drain. With 8 000 records in the old tree and F = 500,
// k = ⌊√(2·8 000/500)⌋ = 5, so the three threshold drains rewrite only the
// young generation, and the Drain compacts old ⊕ young ⊕ front into one
// generation: one rewrite of the old tree per pass instead of four. It
// also pins the reads and steps of a fixed set of Scans, run once beside
// the young generation and once after the Drain. Each Scan beside it reads
// the young tree through a scan session of its own, so it pays young's
// descent, two internal reads at its height of 3, and reads every young
// leaf it crosses. The counters are identical on mem and file.
//
// The top-level case runs at a 4-frame cache. cache=32 repeats the script
// at a 32-frame cache over 40 000 records in a tree of height 4 (fronts of
// 2 000 ops, k = 6), where a scan session's 3-frame cache is far below the
// generation cache: a scanner's private cache holds only its descent path,
// so a session of CacheFrames frames counts the same transfers.
func TestStoreDrainWriteCost(t *testing.T) {
	// At the 4-frame cache the drains write 0.2338 blocks per op.
	// Rebuilding the whole tree on every drain wrote 1 155 blocks and read
	// 1 191 here, 0.7219 writes per op.
	drainWriteCost(t, drainCostCase{
		vol: testConfig(), cacheFrames: 4, n: 8000, f: 500, tail: 100,
		writes: 374, reads: 375, scanReads: 729, scanSteps: 517,
	})
	t.Run("cache=32", func(t *testing.T) {
		drainWriteCost(t, drainCostCase{
			vol: pdm.Config{BlockBytes: 512, MemBlocks: 256, Disks: 2}, cacheFrames: 32, n: 40000, f: 2000, tail: 400,
			height: 4, writes: 1749, reads: 1753, scanReads: 2978, scanSteps: 2677,
		})
	})
}

// drainCostCase is one geometry of TestStoreDrainWriteCost and its pinned
// counters: the drains' writes and reads, and the scans' reads and steps.
type drainCostCase struct {
	vol                  pdm.Config
	cacheFrames          int
	n, f, tail           int
	height               int // the old tree's height after the preload, when pinned
	writes, reads        uint64
	scanReads, scanSteps uint64
}

func drainWriteCost(t *testing.T, c drainCostCase) {
	var stats, scans [2]pdm.Stats
	for b, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			vc := c.vol
			if backend == "file" {
				vc.Dir = t.TempDir()
			}
			vol := pdm.MustVolume(vc)
			defer vol.Close()
			cfg := storeConfig()
			cfg.FrontOps, cfg.CacheFrames = int64(c.f), c.cacheFrames
			s, err := Open(vol, pdm.PoolFor(vol), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ref := map[uint64]uint64{}
			n := uint64(c.n)
			for k := uint64(0); k < n; k++ {
				put(t, s, ref, 2*k, k)
				if (k+1)%uint64(c.f/2) == 0 {
					if err := s.Drain(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if c.height != 0 && s.gen.tree.Height() != c.height {
				t.Fatalf("preloaded tree of height %d, want %d", s.gen.tree.Height(), c.height)
			}
			// scan runs the fixed set of Scans, checks them against ref,
			// and adds their transfers to scans[b].
			scanRng := rand.New(rand.NewSource(45))
			scan := func() {
				before := s.Stats()
				for i := 0; i < 16; i++ {
					lo := uint64(scanRng.Intn(2 * c.n))
					checkScan(t, s, ref, lo, lo+uint64(c.n/8))
				}
				after := s.Stats()
				scans[b].Reads += after.Reads - before.Reads
				scans[b].Steps += after.Steps - before.Steps
			}
			start := s.Stats()
			rng := rand.New(rand.NewSource(44))
			op := func(i int) {
				switch k := uint64(rng.Intn(c.n)); rng.Intn(4) {
				case 0:
					del(t, s, ref, 2*k)
				case 1:
					put(t, s, ref, 2*k, uint64(i))
				default:
					put(t, s, ref, 2*k+1, uint64(i))
				}
			}
			for front := 1; front <= 3; front++ {
				for i := 0; i < c.f; i++ {
					op(i)
				}
				if err := waitDrain(s); err != nil {
					t.Fatal(err)
				}
				if generations(s) != 2 || s.youngFronts != int64(front) {
					t.Fatalf("threshold drain %d: %d generations, young holds %d fronts", front, generations(s), s.youngFronts)
				}
			}
			scan()
			for i := 0; i < c.tail; i++ {
				op(i)
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if generations(s) != 1 {
				t.Fatal("the explicit Drain left a young generation")
			}
			scan()
			end := s.Stats()
			st := pdm.Stats{Reads: end.Reads - start.Reads - scans[b].Reads, Writes: end.Writes - start.Writes,
				Steps: end.Steps - start.Steps - scans[b].Steps}
			stats[b] = st
			ops := 3*c.f + c.tail
			t.Logf("drains wrote %d blocks for %d ops (%.4f per op), read %d; scans read %d in %d steps",
				st.Writes, ops, float64(st.Writes)/float64(ops), st.Reads, scans[b].Reads, scans[b].Steps)
			if st.Writes != c.writes || st.Reads != c.reads {
				t.Errorf("drains wrote %d blocks and read %d, want %d and %d", st.Writes, st.Reads, c.writes, c.reads)
			}
			if got := scans[b]; got.Reads != c.scanReads || got.Steps != c.scanSteps {
				t.Errorf("scans read %d blocks in %d steps, want %d in %d", got.Reads, got.Steps, c.scanReads, c.scanSteps)
			}
			if got := scanAll(t, s); !reflect.DeepEqual(got, ref) {
				t.Fatalf("after the drains the store holds %d keys, want %d", len(got), len(ref))
			}
		})
	}
	if !reflect.DeepEqual(stats[0], stats[1]) || !reflect.DeepEqual(scans[0], scans[1]) {
		t.Fatalf("counters differ: mem drains %v scans %v, file drains %v scans %v", &stats[0], &scans[0], &stats[1], &scans[1])
	}
}

// TestStoreDrainCrashLeaksNothing crashes the volume at every transfer of
// three drains, on both backends: a full merge over a non-empty
// generation, a young drain over a young generation, and a compaction
// that merges one — the crash lands in the scans, the bulk load, the
// rehome's flush and Warm's reads. The failed drain must hand back every
// frame it drew and free every block of the partial tree, leave the view
// as it was (front ⊕ sealed front ⊕ young ⊕ old, the same generations),
// and keep answering from memory every key a buffered operation or a young
// tombstone decides. Close then returns every frame, block and generation
// reference.
func TestStoreDrainCrashLeaksNothing(t *testing.T) {
	var scripts []crashScript
	{
		const n = 2000
		// Generation 2 holds keys [0, n); the front buffers an update of
		// every third key and a delete of every seventh.
		scripts = append(scripts, crashScript{
			name:     "full merge",
			frontOps: 1 << 20,
			prep: func(t *testing.T, s *Store, ref map[uint64]uint64) {
				preload(t, s, ref, n, n)
				for k := uint64(0); k < n; k += 3 {
					put(t, s, ref, k, k+n)
				}
				for k := uint64(0); k < n; k += 7 {
					del(t, s, ref, k)
				}
			},
			run: (*Store).Drain,
		})
	}
	// The sweeps hold an old tree of 600 keys and fronts of F = 100 ops:
	// k = ⌊√(2·600/100)⌋ = 3, so the young generation takes two fronts.
	const n, f = 600, 100
	// young builds the young generation from one front: f ops that
	// overwrite old keys, delete old keys, and insert fresh ones.
	young := func(t *testing.T, s *Store, ref map[uint64]uint64) {
		preload(t, s, ref, n, f/2)
		for i := uint64(0); i < f; i++ {
			switch i % 3 {
			case 0:
				put(t, s, ref, 3*i, i)
			case 1:
				del(t, s, ref, 3*i)
			default:
				put(t, s, ref, n+i, i)
			}
		}
		if err := waitDrain(s); err != nil {
			t.Fatal(err)
		}
		if generations(s) != 2 {
			t.Fatal("the first threshold drain built no young generation")
		}
	}
	// second buffers f−1 ops of a second front: deletes of young and old
	// keys, overwrites of young keys, and deletes re-inserted.
	second := func(t *testing.T, s *Store, ref map[uint64]uint64) {
		young(t, s, ref)
		for i := uint64(0); i < f-1; i++ {
			switch i % 4 {
			case 0:
				del(t, s, ref, n+i)
			case 1:
				put(t, s, ref, 3*i, 7*i)
			case 2:
				del(t, s, ref, 5*i)
			default:
				put(t, s, ref, n+f+i, i)
			}
		}
	}
	scripts = append(scripts, crashScript{
		name:     "young drain",
		frontOps: f,
		prep:     second,
		// The front's f-th op seals it into a young drain.
		run: func(s *Store) error {
			if err := s.Insert(1, 1); err != nil {
				return err
			}
			return waitDrain(s)
		},
	}, crashScript{name: "compaction", frontOps: f, prep: second, run: (*Store).Drain})

	// A fault-free twin of each script counts the transfers up to its
	// drain and through it.
	pre := make([]int64, len(scripts))
	ops := make([]int64, len(scripts))
	for i, cs := range scripts {
		pre[i], ops[i] = dryRun(t, cs)
		t.Logf("%s: a %d-transfer drain", cs.name, ops[i])
	}
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			for i, cs := range scripts {
				for at := int64(0); at < ops[i]; at++ {
					vc := testConfig()
					if backend == "file" {
						vc.Dir = t.TempDir()
					}
					vc.Fault = &pdm.FaultPlan{Seed: 25, FailAfter: pre[i] + at}
					crashAt(t, vc, cs, at)
				}
			}
		})
	}
}

// crashScript is one crash sweep: prep builds the store deterministically
// up to the drain under test, recording what it holds in ref, and run
// starts that drain and waits for it. Every transfer of the drain is a
// crash point.
type crashScript struct {
	name     string
	frontOps int64
	prep     func(t *testing.T, s *Store, ref map[uint64]uint64)
	run      func(s *Store) error
}

// dryRun runs cs without faults and returns the transfers before its
// drain and the drain's own.
func dryRun(t *testing.T, cs crashScript) (pre, drain int64) {
	t.Helper()
	vol := pdm.MustVolume(testConfig())
	defer vol.Close()
	s, err := Open(vol, pdm.PoolFor(vol), cs.config())
	if err != nil {
		t.Fatal(err)
	}
	cs.prep(t, s, map[uint64]uint64{})
	before := vol.Stats().Snapshot()
	if err := cs.run(s); err != nil {
		t.Fatal(err)
	}
	after := vol.Stats().Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pre = int64(before.Reads + before.Writes)
	return pre, int64(after.Reads+after.Writes) - pre
}

func (cs crashScript) config() Config {
	cfg := storeConfig()
	cfg.FrontOps = cs.frontOps
	return cfg
}

// crashAt runs one crash point of a sweep: the at-th transfer of cs's
// drain is the first to fail.
func crashAt(t *testing.T, vc pdm.Config, cs crashScript, at int64) {
	t.Helper()
	cfg := cs.config()
	vol, err := pdm.NewVolume(vc)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	s, err := Open(vol, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]uint64{}
	cs.prep(t, s, ref)
	free, live := pool.Free(), vol.Allocated()-vol.FreeBlocks()
	s.mu.RLock()
	gen, young := s.gen, s.young
	s.mu.RUnlock()
	if err := cs.run(s); !errors.Is(err, pdm.ErrFaulted) {
		t.Fatalf("%s, transfer %d: drain through the crash = %v, want ErrFaulted", cs.name, at, err)
	}
	if got := pool.Free(); got != free {
		t.Errorf("%s, transfer %d: failed drain kept frames: %d free, %d before", cs.name, at, got, free)
	}
	if got := vol.Allocated() - vol.FreeBlocks(); got != live {
		t.Errorf("%s, transfer %d: failed drain leaked blocks: %d live, %d before", cs.name, at, got, live)
	}
	s.mu.RLock()
	intact := s.gen == gen && s.young == young && s.sealedMem != nil
	s.mu.RUnlock()
	if !intact {
		t.Errorf("%s, transfer %d: the failed drain changed the view", cs.name, at)
	}
	// Every key memory decides answers right; the dead volume is never
	// asked.
	answered := 0
	for k := uint64(0); k < 4096; k++ {
		s.mu.RLock()
		_, inMemory, _ := s.probeLocked(&finger{o: s.frontMem}, &finger{o: s.sealedMem}, k)
		s.mu.RUnlock()
		if !inMemory {
			continue
		}
		answered++
		v, ok, err := s.Get(k)
		want, wok := ref[k]
		if err != nil || ok != wok || v != want {
			t.Fatalf("%s, transfer %d: Get(%d) after the failed drain = (%d, %v, %v), want (%d, %v)", cs.name, at, k, v, ok, err, want, wok)
		}
	}
	if answered == 0 {
		t.Fatalf("%s, transfer %d: memory answers no key", cs.name, at)
	}
	s.Close() // the volume is dead: the error may be anything
	if got := pool.Free(); got != pool.Capacity() {
		t.Errorf("%s, transfer %d: close kept frames: %d of %d free", cs.name, at, got, pool.Capacity())
	}
	if free, alloc := vol.FreeBlocks(), vol.Allocated(); free != alloc {
		t.Errorf("%s, transfer %d: close leaked blocks: %d of %d free", cs.name, at, free, alloc)
	}
	for _, g := range []*generation{gen, young} {
		if g != nil && g.refs.Load() != 0 {
			t.Errorf("%s, transfer %d: a generation keeps %d references after close", cs.name, at, g.refs.Load())
		}
	}
	if !vol.Fault().Crashed() {
		t.Errorf("%s, transfer %d: the fault plan never reached its crash point", cs.name, at)
	}
}

// preload inserts keys [0, n) with value k, draining explicitly after
// every round of keys, and waits out the last drain.
func preload(t *testing.T, s *Store, ref map[uint64]uint64, n, round uint64) {
	t.Helper()
	for k := uint64(0); k < n; k++ {
		put(t, s, ref, k, k)
		if (k+1)%round == 0 || k+1 == n {
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func put(t *testing.T, s *Store, ref map[uint64]uint64, k, v uint64) {
	t.Helper()
	if err := s.Insert(k, v); err != nil {
		t.Fatal(err)
	}
	ref[k] = v
}

func del(t *testing.T, s *Store, ref map[uint64]uint64, k uint64) {
	t.Helper()
	if err := s.Delete(k); err != nil {
		t.Fatal(err)
	}
	delete(ref, k)
}

// waitDrain waits out the drain in flight, if any, without starting one,
// and returns the store's sticky drain error.
// generations reports how many B-tree generations s's view serves from:
// 1, or 2 while a young generation exists.
func generations(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.young != nil {
		return 2
	}
	return 1
}

func waitDrain(s *Store) error {
	s.mu.RLock()
	done, draining := s.drainDone, s.draining
	s.mu.RUnlock()
	if draining {
		<-done
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.drainErr
}

// TestStoreDrainFitsReservation drains a full front at the repo
// benchmark's store-file geometry — 4 KiB blocks, two disks, a 32-frame
// cache, fronts of 32 768 ops — on the drain reservation Open makes, which
// must then be exactly two scan sessions of scanFrames and one loader of
// the 32-frame cache at drain width 1, 2·(3 + 2·1) + 32 + 2·1 = 44 frames.
// A reservation too small for the drain's sessions, scans and loader fails
// the drain with ErrNoFrames.
func TestStoreDrainFitsReservation(t *testing.T) {
	forEachBackend(t, pdm.Config{BlockBytes: 4096, MemBlocks: 512, Disks: 2}, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		const front = 32768
		s, err := Open(vol, pool, Config{FrontOps: 1 << 40, CacheFrames: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got, want := s.drainPool.Capacity(), 2*(3+2*1)+32+2*1; got != want {
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
// pools sized around the drain reservation: at the drain width w, a
// session that scans the old generation and one that scans the young
// generation (btree.SessionFrames at scanFrames each) plus one loader
// (btree.LoaderFrames at CacheFrames), CacheFrames + 6·w + 6 frames. The script
// feeds keys through threshold drains of fronts of keys/20 ops, then an
// explicit drain that builds a tree with more internal nodes than a cache
// holds; one more front, whose threshold drain goes into the young
// generation; and the explicit drain that compacts old ⊕ young, which
// opens all three budgets.
//   - One frame short of the reservation, Open fails with ErrNoFrames and
//     leaks nothing.
//   - At it plus two generation caches, the script fails with
//     ErrNoFrames: a handover with a young generation in the view warms
//     a third cache beside the old and young ones. Close returns the
//     error and every frame and block.
//   - At it plus three caches, the script runs, each explicit drain leaves
//     one generation, and the drain pool's peak is its capacity: no
//     reserved frame goes unused.
func TestStoreDrainReservationIsExact(t *testing.T) {
	const cacheFrames, keys = 4, 20000
	script := func(s *Store, seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		for round, n := range []int{keys, keys / 20} {
			for i := 0; i < n; i++ {
				if err := s.Insert(rng.Uint64(), uint64(i)); err != nil {
					return err
				}
			}
			if round == 1 {
				if err := waitDrain(s); err != nil {
					return err
				}
				if generations(s) != 2 {
					return errors.New("the last front's threshold drain built no young generation")
				}
			}
			if err := s.Drain(); err != nil {
				return fmt.Errorf("drain %d: %w", round+1, err)
			}
			if generations(s) != 1 {
				return fmt.Errorf("drain %d left a young generation", round+1)
			}
		}
		return nil
	}
	for _, width := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("W=%d", width), func(t *testing.T) {
			cfg := pdm.Config{BlockBytes: 256, MemBlocks: 8, Disks: width}
			forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, _ *pdm.Pool) {
				sc := Config{FrontOps: keys / 20, CacheFrames: cacheFrames, Width: width}
				w := sc.drainWidth()
				reservation := 2*btree.SessionFrames(scanFrames, w) + btree.LoaderFrames(cacheFrames, w)
				if reservation != cacheFrames+6*w+6 {
					t.Fatalf("drain reservation %d frames, want %d + 6·%d + 6", reservation, cacheFrames, w)
				}
				short := pdm.NewPool(cfg.BlockBytes, reservation-1)
				live := vol.Allocated() - vol.FreeBlocks()
				if _, err := Open(vol, short, sc); !errors.Is(err, pdm.ErrNoFrames) {
					t.Fatalf("Open one frame short = %v, want ErrNoFrames", err)
				}
				if short.InUse() != 0 || vol.Allocated()-vol.FreeBlocks() != live {
					t.Fatalf("failed Open kept %d frames and %d blocks", short.InUse(), vol.Allocated()-vol.FreeBlocks()-live)
				}

				for _, caches := range []int{2, 3} {
					pool := pdm.NewPool(cfg.BlockBytes, reservation+caches*cacheFrames)
					s, err := Open(vol, pool, sc)
					if err != nil {
						t.Fatal(err)
					}
					err = script(s, int64(width))
					closeErr := s.Close()
					if caches == 2 {
						if !errors.Is(err, pdm.ErrNoFrames) || !errors.Is(closeErr, pdm.ErrNoFrames) {
							t.Errorf("two generation caches: script %v, Close %v; want ErrNoFrames", err, closeErr)
						}
					} else {
						if err != nil {
							t.Fatal(err)
						}
						if closeErr != nil {
							t.Fatal(closeErr)
						}
						if got, want := s.drainPool.Peak(), s.drainPool.Capacity(); got != want {
							t.Errorf("drain pool peak %d of %d reserved frames", got, want)
						}
					}
					if pool.InUse() != 0 {
						t.Errorf("%d caches: close kept %d frames", caches, pool.InUse())
					}
					if got := vol.Allocated() - vol.FreeBlocks(); got != live {
						t.Errorf("%d caches: close leaked %d blocks", caches, got-live)
					}
				}
			})
		})
	}
}
