package btree

import (
	"math/rand"
	"reflect"
	"testing"

	"em/internal/cache"
	"em/internal/pdm"
)

// descentPath returns the node addresses Get(key) visits, root first, by
// walking the tree through c — a cache large enough to hold the whole tree,
// so the walk itself never evicts.
func descentPath(t *testing.T, tr *Tree, c *cache.Cache, key uint64) []int64 {
	t.Helper()
	path := make([]int64, 0, tr.height)
	addr := tr.root
	for level := tr.height; level >= 1; level-- {
		path = append(path, addr)
		if level == 1 {
			break
		}
		p, err := c.Pin(addr, internal)
		if err != nil {
			t.Fatal(err)
		}
		addr = tr.child(p, searchChildSlot(p, key))
		c.Unpin(p)
	}
	return path
}

// retainTree bulk-loads n keys into 256-byte blocks (fan-out 14) and returns
// the tree with a cold cache of frames pages plus a session whose cache
// holds every node.
func retainTree(t *testing.T, n, frames int) (*Tree, *Session) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 512, Disks: 1})
	pool := pdm.PoolFor(vol)
	tr := bulkTree(t, vol, pool, n, nil)
	if err := tr.Rehome(pool, frames); err != nil {
		t.Fatal(err)
	}
	whole, err := tr.NewSessionOn(pool, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		whole.Close()
		tr.Close()
		if pool.InUse() != 0 {
			t.Errorf("frame leak: %d", pool.InUse())
		}
	})
	return tr, whole
}

// TestWarmKeepsInternalNodesResident is Warm's promise from the other side:
// once the internal nodes of a height-3 tree are in a cache that fits them,
// leaf traffic never pushes one out, so no Get reads an internal node.
func TestWarmKeepsInternalNodesResident(t *testing.T) {
	tr, whole := retainTree(t, 1500, 16) // 8 leaf parents + the root
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	if err := tr.Warm(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	before := tr.Stats().Reads
	const gets = 2000
	leafMisses := uint64(0)
	for i := 0; i < gets; i++ {
		key := uint64(rng.Intn(3000))
		path := descentPath(t, tr, whole.cache, key)
		for _, a := range path[:len(path)-1] {
			p := tr.cache.Peek(a, internal)
			if p == nil {
				t.Fatalf("get %d: internal node %d was evicted", i, a)
			}
			tr.cache.Unpin(p)
		}
		misses := tr.CacheStats().Misses
		if _, _, err := tr.Get(key); err != nil {
			t.Fatal(err)
		}
		leafMisses += tr.CacheStats().Misses - misses
	}
	// Every read of the pass was a leaf's (the walker's own reads go through
	// the other cache and are subtracted with its misses).
	reads := tr.Stats().Reads - before - whole.CacheStats().Misses
	if reads != leafMisses || leafMisses > gets {
		t.Fatalf("%d reads, %d leaf misses over %d gets", reads, leafMisses, gets)
	}
}

// TestMissesAgainstMIN holds the buffer manager against the package's own
// yardstick: the reference string of a pass of Gets, replayed through the
// offline LRU and MIN simulators at the tree cache's frame count. Plain LRU
// is what the cache did before it knew which pages were internal nodes; MIN
// is the floor no policy beats. On skewed keys a leaf earns its frame by
// being hit while resident (the cache's hot class); on uniform keys almost
// none does, and maxMisses holds that case to what level retention alone
// achieved (19 540 misses) plus 0.1 %.
func TestMissesAgainstMIN(t *testing.T) {
	const n, frames, gets = 3000, 24, 20000
	for _, tc := range []struct {
		name string
		key  func(rng *rand.Rand, zipf *rand.Zipf) int
		// maxOverMIN bounds live misses over MIN's; maxMisses, when set,
		// bounds them outright.
		maxOverMIN float64
		maxMisses  int
	}{
		{"uniform", func(rng *rand.Rand, _ *rand.Zipf) int { return rng.Intn(n) }, 1.25, 19560},
		// Skewed keys scattered over the leaves: the case most favourable to
		// plain LRU, whose hot leaves compete with cold internal nodes.
		{"zipf1.1", func(_ *rand.Rand, z *rand.Zipf) int { return int(z.Uint64()) * 7919 % n }, 1.25, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, whole := retainTree(t, n, frames)
			if tr.Height() != 4 {
				t.Fatalf("height %d, want 4", tr.Height())
			}
			rng := rand.New(rand.NewSource(21))
			zipf := rand.NewZipf(rng, 1.1, 1, n-1)
			var refs []int64
			for i := 0; i < gets; i++ {
				key := uint64(2 * tc.key(rng, zipf))
				refs = append(refs, descentPath(t, tr, whole.cache, key)...)
				if _, ok, err := tr.Get(key); err != nil || !ok {
					t.Fatalf("get %d: %v %v", key, ok, err)
				}
			}
			live := int(tr.CacheStats().Misses)
			lru, floor := cache.FaultsLRU(refs, frames), cache.FaultsMIN(refs, frames)
			t.Logf("misses over %d gets at %d frames: MIN %d, live %d, LRU %d (live/MIN %.3f, LRU/MIN %.3f)",
				gets, frames, floor, live, lru, float64(live)/float64(floor), float64(lru)/float64(floor))
			if live < floor || live > lru {
				t.Fatalf("want MIN %d <= live %d <= LRU %d", floor, live, lru)
			}
			if live == lru || float64(live) > tc.maxOverMIN*float64(floor) {
				t.Fatalf("live %d misses: want below LRU's %d and within %.2f x MIN's %d", live, lru, tc.maxOverMIN, floor)
			}
			if tc.maxMisses > 0 && live > tc.maxMisses {
				t.Fatalf("live %d misses, want at most %d", live, tc.maxMisses)
			}
		})
	}
}

// TestSessionBatchesEarnRetention pins what a warmed serving session reads
// over batches that alternate skewed and uniform keys, each batch split
// over four shards and this session serving one quarter: the leaves the
// skewed batches hit while resident earn the hot class and outlive the
// leaves a uniform batch touches once. Level retention alone read
// levelOnlyReads on the same script, Warm's ten included. The count is
// exact, and the session's Stats are identical on both backends.
func TestSessionBatchesEarnRetention(t *testing.T) {
	const batches, shards = 800, 4
	const levelOnlyReads, wantReads = 9572, 9036
	var stats []pdm.Stats
	for _, backend := range []string{"mem", "file"} {
		cfg := serving.config()
		if backend == "file" {
			cfg.Dir = t.TempDir()
		}
		vol := pdm.MustVolume(cfg)
		pool := pdm.PoolFor(vol)
		tr, _, _ := serving.open(t, vol, pool)
		s, err := tr.NewSessionOn(pool, serving.frames, serving.disks)
		if err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		if err := s.Warm(); err != nil {
			t.Fatal(err)
		}
		keys := 0
		for j, batch := range servingBatches(rand.New(rand.NewSource(47)), batches, shards, serving.n) {
			vals, found, err := s.GetBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range batch {
				if want := k%2 == 0; found[i] != want || (want && vals[i] != k/2) {
					t.Fatalf("batch %d key %d: (%d, %v)", j, k, vals[i], found[i])
				}
			}
			keys += len(batch)
		}
		got := tr.Stats()
		t.Logf("%s: %d reads in %d steps over %d keys (level retention alone: %d reads)", backend, got.Reads, got.Steps, keys, levelOnlyReads)
		if got.Reads != wantReads {
			t.Fatalf("%s: %d reads, want %d", backend, got.Reads, wantReads)
		}
		stats = append(stats, got)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Fatalf("mem %v != file %v", stats[0], stats[1])
	}
}
