package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"em/internal/btree"
	"em/internal/pdm"
)

func testConfig() pdm.Config {
	return pdm.Config{BlockBytes: 512, MemBlocks: 96, Disks: 2}
}

func storeConfig() Config {
	return Config{
		FrontOps:    100,
		CacheFrames: 4,
		Width:       2,
	}
}

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

func scanAll(t *testing.T, s *Store) map[uint64]uint64 {
	t.Helper()
	sc, err := s.Scan(0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	got := map[uint64]uint64{}
	last := int64(-1)
	for {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if int64(r.Key) <= last {
			t.Fatalf("scan out of order: %d after %d", r.Key, last)
		}
		last = int64(r.Key)
		got[r.Key] = r.Val
	}
	return got
}

// checkScan compares Scan(lo, hi) with the reference map: the same keys in
// ascending order, the same values.
func checkScan(t *testing.T, s *Store, ref map[uint64]uint64, lo, hi uint64) {
	t.Helper()
	var want []uint64
	for k := range ref {
		if k >= lo && k <= hi {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sc, err := s.Scan(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for _, k := range want {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok || r.Key != k || r.Val != ref[k] {
			t.Fatalf("Scan(%d, %d): got (%d,%d,%v), want (%d,%d)", lo, hi, r.Key, r.Val, ok, k, ref[k])
		}
	}
	if r, ok, err := sc.Next(); err != nil || ok {
		t.Fatalf("Scan(%d, %d): (%d,%d,%v,%v) after its %d records", lo, hi, r.Key, r.Val, ok, err, len(want))
	}
}

// TestStoreQuickMatchesMap drives a random interleaving of inserts,
// deletes, drains, narrow range scans — some opened right after a seal,
// while the sealed front still awaits its handover — and Session reads
// against an in-memory reference map, checking point reads along the way
// and the full scan at the end, on both backends. The small shape drains
// every hundred ops over 120 keys, so k ≤ 1 and every drain is a full
// merge; the large one holds fronts of 4 096 ops over 20 000 keys, so the
// in-memory overlays run to dozens of chunks and scans cut across them;
// the young one seals fronts of 64 ops over 2 000 keys with explicit
// drains rare and waits out each threshold drain, so they build and grow
// a young generation (k up to 6) under overwrites and deletes of keys the
// old tree holds,
// and scans, batches and a long-lived Session cross fronts, young and old
// through young handovers and compactions. Every explicit Drain leaves one
// generation. Close comes with a drain just started, and must still hand
// back every pool frame and volume block.
func TestStoreQuickMatchesMap(t *testing.T) {
	large := storeConfig()
	large.FrontOps = 4096
	young := storeConfig()
	young.FrontOps = 64
	for _, tc := range []struct {
		name       string
		vol        pdm.Config
		store      Config
		keySpace   int
		ops        int
		drainEvery int
		young      bool // the script must grow a young generation
	}{
		{"small", testConfig(), storeConfig(), 120, 2500, 200, false},
		{"large", pdm.Config{BlockBytes: 2048, MemBlocks: 96, Disks: 2}, large, 20000, 30000, 7000, false},
		{"young", testConfig(), young, 2000, 12000, 3000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachBackend(t, tc.vol, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
				quickMatchesMap(t, vol, pool, tc.store, tc.keySpace, tc.ops, tc.drainEvery, tc.young)
			})
		})
	}
}

func quickMatchesMap(t *testing.T, vol *pdm.Volume, pool *pdm.Pool, cfg Config, keySpace, ops, drainEvery int, wantYoung bool) {
	free0 := pool.Free()
	s, err := Open(vol, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	ref := map[uint64]uint64{}
	sess, err := s.NewSession(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() {
		t.Helper()
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if g := generations(s); g != 1 {
			t.Fatalf("an explicit Drain left %d generations", g)
		}
	}
	sealedScans, youngScans := 0, 0
	var youngFronts int64
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keySpace))
		switch rng.Intn(4) {
		case 0:
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		default:
			v := uint64(rng.Intn(1 << 30))
			if err := s.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
		if rng.Intn(drainEvery) == 0 {
			drain()
		}
		if wantYoung {
			// Each threshold drain lands before the next op, so the young
			// generation grows front by front whatever the scheduling.
			if err := waitDrain(s); err != nil {
				t.Fatal(err)
			}
		}
		if i%997 == 996 {
			// A fresh session now and then; the old one has lived through
			// whatever handovers came since it opened.
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if sess, err = s.NewSession(0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(10) == 0 {
			q := uint64(rng.Intn(keySpace))
			want, wok := ref[q]
			v, ok, err := s.Get(q)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wok || (ok && v != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, q, v, ok, want, wok)
			}
			v, ok, err = sess.Get(q)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wok || (ok && v != want) {
				t.Fatalf("op %d: session Get(%d) = (%d,%v), want (%d,%v)", i, q, v, ok, want, wok)
			}
		}
		if rng.Intn(40) == 0 {
			// A narrow scan: a single key, or up to a sixteenth of the keys.
			lo := uint64(rng.Intn(keySpace))
			hi := lo
			if rng.Intn(4) > 0 {
				hi += uint64(rng.Intn(keySpace/16 + 1))
			}
			if rng.Intn(3) == 0 {
				s.StartDrain()
				s.mu.RLock()
				if s.sealedMem != nil {
					sealedScans++
				}
				s.mu.RUnlock()
			}
			s.mu.RLock()
			if s.young != nil {
				youngScans++
				youngFronts = max(youngFronts, s.youngFronts)
			}
			s.mu.RUnlock()
			checkScan(t, s, ref, lo, hi)
			// The same range's first keys through the session's batch.
			keys := make([]uint64, 0, 64)
			for k := lo; k <= hi && len(keys) < cap(keys); k++ {
				keys = append(keys, k)
			}
			vals, found, err := sess.GetBatch(keys)
			if err != nil {
				t.Fatal(err)
			}
			for j, k := range keys {
				want, wok := ref[k]
				if found[j] != wok || (wok && vals[j] != want) {
					t.Fatalf("op %d: session GetBatch(%d) = (%d,%v), want (%d,%v)", i, k, vals[j], found[j], want, wok)
				}
			}
		}
	}
	if sealedScans == 0 {
		t.Fatal("no scan ever ran against a sealed overlay")
	}
	t.Logf("%d drains; %d of the scans ran over a sealed front, %d over a young generation of up to %d fronts",
		s.Drains(), sealedScans, youngScans, youngFronts)
	if wantYoung && (youngScans == 0 || youngFronts < 2) {
		t.Fatalf("%d scans ran over a young generation, which took at most %d fronts; want it to grow", youngScans, youngFronts)
	}
	// Batched lookups over the whole key space.
	keys := make([]uint64, keySpace)
	for i := range keys {
		keys[i] = uint64(i)
	}
	vals, found, err := s.GetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want, wok := ref[k]
		if found[i] != wok || (wok && vals[i] != want) {
			t.Fatalf("GetBatch(%d) = (%d,%v), want (%d,%v)", k, vals[i], found[i], want, wok)
		}
	}
	// Scan before quiescing (layers still populated), then after.
	for pass := 0; pass < 2; pass++ {
		got := scanAll(t, s)
		if len(got) != len(ref) {
			t.Fatalf("pass %d: scan found %d keys, want %d", pass, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("pass %d: scan[%d] = %d, want %d", pass, k, got[k], v)
			}
		}
		if pass == 0 {
			drain()
		}
	}
	if s.Drains() == 0 {
		t.Fatal("no drain ever ran; thresholds too loose for the test to mean anything")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Close with a drain in flight: it waits for the drain, which retires
	// the old generation, then releases the one the drain installed.
	for k := 0; k < keySpace; k += 3 {
		if err := s.Insert(uint64(k), 1); err != nil {
			t.Fatal(err)
		}
	}
	if !s.StartDrain() {
		t.Fatal("StartDrain over a non-empty front started nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Free(); got != free0 {
		t.Fatalf("pool leak: %d frames free after close, %d before open", got, free0)
	}
	if free, alloc := vol.FreeBlocks(), vol.Allocated(); free != alloc {
		t.Fatalf("block leak: %d of %d allocated blocks free after close", free, alloc)
	}
}

// TestStoreDeleteEverything checks tombstone cancellation end to end: a
// drained store whose every key was deleted serves an empty scan and an
// empty next generation.
func TestStoreDeleteEverything(t *testing.T) {
	forEachBackend(t, testConfig(), func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		s, err := Open(vol, pool, storeConfig())
		if err != nil {
			t.Fatal(err)
		}
		const n = 300
		for k := uint64(0); k < n; k++ {
			if err := s.Insert(k, k*3); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < n; k++ {
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := scanAll(t, s); len(got) != 0 {
			t.Fatalf("scan after deleting everything found %d keys", len(got))
		}
		for _, k := range []uint64{0, 1, n - 1, n / 2} {
			if _, ok, err := s.Get(k); err != nil || ok {
				t.Fatalf("Get(%d) after delete-all = ok=%v err=%v", k, ok, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
			t.Fatalf("block leak: %d live blocks after close", live)
		}
	})
}

// TestStoreScannerSnapshot opens a scanner, then mutates and drains the
// store underneath it; the scanner must deliver exactly the records that
// existed at open time (the drain handover may not disturb it).
func TestStoreScannerSnapshot(t *testing.T) {
	forEachBackend(t, testConfig(), func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		s, err := Open(vol, pool, storeConfig())
		if err != nil {
			t.Fatal(err)
		}
		ref := map[uint64]uint64{}
		for k := uint64(0); k < 400; k++ {
			if err := s.Insert(k, k+7); err != nil {
				t.Fatal(err)
			}
			ref[k] = k + 7
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		// Leave updates buffered in the front so the snapshot spans layers.
		for k := uint64(0); k < 50; k++ {
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		}
		sc, err := s.Scan(0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		// A narrow snapshot too, over buffered tombstones (30..49) and
		// drained records: what is written inside [30, 120] from here on
		// — the deleted keys come back, the rest change value — must not
		// show in it.
		narrow, err := s.Scan(30, 120)
		if err != nil {
			t.Fatal(err)
		}
		// Mutate heavily after the snapshot, forcing drains and a
		// generation handover while the scanner is mid-flight.
		for k := uint64(0); k < 400; k++ {
			if err := s.Insert(k, 999999); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, k := range want {
			r, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok || r.Key != k || r.Val != ref[k] {
				t.Fatalf("snapshot scan: got (%d,%d,%v), want (%d,%d)", r.Key, r.Val, ok, k, ref[k])
			}
		}
		if _, ok, err := sc.Next(); err != nil || ok {
			t.Fatalf("snapshot scan should be exhausted, ok=%v err=%v", ok, err)
		}
		sc.Close()
		for k := uint64(50); k <= 120; k++ {
			r, ok, err := narrow.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok || r.Key != k || r.Val != ref[k] {
				t.Fatalf("narrow snapshot scan: got (%d,%d,%v), want (%d,%d)", r.Key, r.Val, ok, k, ref[k])
			}
		}
		if _, ok, err := narrow.Next(); err != nil || ok {
			t.Fatalf("narrow snapshot scan should be exhausted, ok=%v err=%v", ok, err)
		}
		narrow.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := pool.InUse(); got != 0 {
			t.Fatalf("pool leak: %d frames in use after close", got)
		}
		if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
			t.Fatalf("block leak: %d live blocks after close", live)
		}
	})
}

// TestStoreScanUnwindsYoungSession gives a Scan whose range holds live
// young keys a pool with room for the old tree's scan session but one
// frame short of the young tree's beside it. The Scan must fail with
// pdm.ErrNoFrames — what the admission gate waits on and retries — after
// closing the session it did open: every frame back in the pool and both
// generations' references as they were. One frame more, two whole
// sessions, and it opens; with every frame back it serves the view.
func TestStoreScanUnwindsYoungSession(t *testing.T) {
	forEachBackend(t, testConfig(), func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		cfg := storeConfig()
		s, err := Open(vol, pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// An old tree of 600 keys and fronts of 100: k = 3, so the next
		// front's threshold drain builds a young generation.
		ref := map[uint64]uint64{}
		preload(t, s, ref, 600, 50)
		for k := uint64(0); k < uint64(cfg.FrontOps); k++ {
			put(t, s, ref, 6*k+1, k)
		}
		if err := waitDrain(s); err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		gen, young := s.gen, s.young
		s.mu.RUnlock()
		if young == nil {
			t.Fatal("the threshold drain built no young generation")
		}
		session := btree.SessionFrames(scanFrames, cfg.Width)
		held, err := pool.AllocN(pool.Free() - (2*session - 1))
		if err != nil {
			t.Fatal(err)
		}
		free, refs, youngRefs := pool.Free(), gen.refs.Load(), young.refs.Load()
		if _, err := s.Scan(0, ^uint64(0)); !errors.Is(err, pdm.ErrNoFrames) {
			t.Fatalf("Scan without room for the young session = %v, want ErrNoFrames", err)
		}
		if got := pool.Free(); got != free {
			t.Errorf("the failed Scan kept %d frames", free-got)
		}
		if gen.refs.Load() != refs || young.refs.Load() != youngRefs {
			t.Errorf("the failed Scan left references old %d, young %d; want %d, %d",
				gen.refs.Load(), young.refs.Load(), refs, youngRefs)
		}
		pdm.ReleaseAll(held[:1])
		sc, err := s.Scan(0, ^uint64(0))
		if err != nil {
			t.Fatalf("Scan with room for both sessions: %v", err)
		}
		sc.Close()
		pdm.ReleaseAll(held[1:])
		if got := scanAll(t, s); !reflect.DeepEqual(got, ref) {
			t.Fatalf("the Scan with its frames back holds %d keys, want %d", len(got), len(ref))
		}
	})
}

// TestStoreSessionAcrossDrain checks that a Session stays read-your-writes
// across generation handovers: keys that migrate from the front into a new
// generation must remain visible through the same session.
func TestStoreSessionAcrossDrain(t *testing.T) {
	forEachBackend(t, testConfig(), func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		s, err := Open(vol, pool, storeConfig())
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 200; k++ {
			if err := s.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		sess, err := s.NewSession(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok, err := sess.Get(10); err != nil || !ok || v != 10 {
			t.Fatalf("session Get(10) = (%d,%v,%v)", v, ok, err)
		}
		epoch := s.Epoch()
		for k := uint64(200); k < 500; k++ {
			if err := s.Insert(k, k*2); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if s.Epoch() == epoch {
			t.Fatal("drain did not advance the epoch")
		}
		// 250 moved front -> generation; the session must re-pin and see it.
		if v, ok, err := sess.Get(250); err != nil || !ok || v != 500 {
			t.Fatalf("session Get(250) after handover = (%d,%v,%v)", v, ok, err)
		}
		vals, found, err := sess.GetBatch([]uint64{10, 250, 900})
		if err != nil {
			t.Fatal(err)
		}
		if !found[0] || vals[0] != 10 || !found[1] || vals[1] != 500 || found[2] {
			t.Fatalf("session GetBatch = %v %v", vals, found)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := pool.InUse(); got != 0 {
			t.Fatalf("pool leak: %d frames in use after close", got)
		}
		if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
			t.Fatalf("block leak: %d live blocks after close", live)
		}
	})
}

// TestStoreReadsDuringDrain is the concurrency property behind the whole
// design: reader goroutines observe a consistent view — stable keys always
// present, per-key transitions monotone — while a writer forces seals,
// background drains, and generation handovers. Run under -race (make ci)
// it also checks the handover's memory ordering.
func TestStoreReadsDuringDrain(t *testing.T) {
	forEachBackend(t, testConfig(), func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		s, err := Open(vol, pool, storeConfig())
		if err != nil {
			t.Fatal(err)
		}
		const stable = 200 // odd keys below are never touched again
		for k := uint64(0); k < stable; k++ {
			if err := s.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				gone := map[uint64]bool{}    // even stable keys observed deleted
				arrived := map[uint64]bool{} // new keys observed present
				for {
					select {
					case <-done:
						return
					default:
					}
					k := uint64(rng.Intn(2 * stable))
					v, ok, err := s.Get(k)
					if err != nil {
						errs <- err
						return
					}
					switch {
					case k < stable && k%2 == 1:
						if !ok || v != k {
							errs <- errMismatch(k, v, ok)
							return
						}
					case k < stable:
						if ok && v != k {
							errs <- errMismatch(k, v, ok)
							return
						}
						if !ok {
							gone[k] = true
						} else if gone[k] {
							errs <- errMismatch(k, v, ok) // deletion un-happened
							return
						}
					default:
						if ok && v != k*10 {
							errs <- errMismatch(k, v, ok)
							return
						}
						if ok {
							arrived[k] = true
						} else if arrived[k] {
							errs <- errMismatch(k, v, ok) // insert un-happened
							return
						}
					}
				}
			}(int64(r + 1))
		}
		// Writer: delete even stable keys, insert new keys, across several
		// forced drains.
		for k := uint64(0); k < stable; k += 2 {
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(stable+k, (stable+k)*10); err != nil {
				t.Fatal(err)
			}
			if err := s.Insert(stable+k+1, (stable+k+1)*10); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		close(done)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := pool.InUse(); got != 0 {
			t.Fatalf("pool leak: %d frames in use after close", got)
		}
		if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
			t.Fatalf("block leak: %d live blocks after close", live)
		}
	})
}

func errMismatch(k, v uint64, ok bool) error {
	return fmt.Errorf("inconsistent read during drain: key %d -> (%d, %v)", k, v, ok)
}

// TestStorePointReadsAllocateNothing pins the route's allocations. Store.Get
// and Session.Get make none for a key decided at each layer: the front,
// the sealed front, a young tombstone, the young tree and the old tree.
// GetBatch's per-call allocations, over a batch that reaches every layer,
// are capped at 26 for both callers.
func TestStorePointReadsAllocateNothing(t *testing.T) {
	const n, f = 4000, 200
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 512, MemBlocks: 256, Disks: 2})
	defer vol.Close()
	s, err := Open(vol, pdm.PoolFor(vol), Config{FrontOps: f, CacheFrames: 16, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := map[uint64]uint64{}
	for k := uint64(0); k < n; k++ {
		put(t, s, ref, 2*k, k)
		if (k+1)%(f/2) == 0 {
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One threshold drain builds the young generation: key 1 live in its
	// tree, key 2 dead in its directory.
	put(t, s, ref, 1, 11)
	del(t, s, ref, 2)
	for k := uint64(1); k < f-1; k++ {
		put(t, s, ref, 2*n+2*k, k)
	}
	if err := waitDrain(s); err != nil {
		t.Fatal(err)
	}
	if generations(s) != 2 {
		t.Fatal("the threshold drain built no young generation")
	}
	// A sealed front, installed by hand as a drain that never finishes,
	// holds key 3, and the front key 5.
	put(t, s, ref, 3, 33)
	s.mu.Lock()
	s.sealedMem, s.frontMem, s.frontOps = s.frontMem, &overlay{}, 0
	s.mu.Unlock()
	put(t, s, ref, 5, 55)

	sess, err := s.NewSession(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sess.Close(); err != nil {
			t.Error(err)
		}
	}()
	for _, c := range []struct {
		layer string
		key   uint64
	}{{"front", 5}, {"sealed front", 3}, {"young tombstone", 2}, {"young tree", 1}, {"old tree", 4}} {
		want, wantOK := ref[c.key]
		for _, r := range []struct {
			name string
			get  func(uint64) (uint64, bool, error)
		}{{"Store", s.Get}, {"Session", sess.Get}} {
			var v uint64
			var ok bool
			allocs := testing.AllocsPerRun(100, func() { v, ok, err = r.get(c.key) })
			if err != nil || v != want || ok != wantOK {
				t.Fatalf("%s.Get of the %s's key %d = (%d, %v, %v), want (%d, %v)", r.name, c.layer, c.key, v, ok, err, want, wantOK)
			}
			if allocs != 0 {
				t.Errorf("%s.Get of the %s's key: %v allocations, want 0", r.name, c.layer, allocs)
			}
		}
	}
	batch := []uint64{1, 2, 3, 4, 5, 6, 2*n + 2, 2*n + 3}
	for _, r := range []struct {
		name     string
		getBatch func([]uint64) ([]uint64, []bool, error)
	}{{"Store", s.GetBatch}, {"Session", sess.GetBatch}} {
		var vals []uint64
		var found []bool
		allocs := testing.AllocsPerRun(100, func() { vals, found, err = r.getBatch(batch) })
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range batch {
			if want, ok := ref[k]; vals[i] != want || found[i] != ok {
				t.Fatalf("%s.GetBatch: key %d = (%d, %v), want (%d, %v)", r.name, k, vals[i], found[i], want, ok)
			}
		}
		if allocs > 26 {
			t.Errorf("%s.GetBatch: %v allocations, want at most 26", r.name, allocs)
		}
	}
}
