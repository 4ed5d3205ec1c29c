package btree

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"em/internal/cache"
	"em/internal/pdm"
)

// geom is a tree-and-cache shape a batched fetch must serve: bulkTree's n
// keys in blockBytes blocks over disks disks, read through frames frames.
type geom struct {
	blockBytes, disks, n, frames int
	height, internals            int // what the shape is chosen for; asserted
}

var (
	// roomy: one retained node (the root) in 48 frames, 58 leaves.
	roomy = geom{blockBytes: 1024, disks: 2, n: 3600, frames: 48, height: 2, internals: 1}
	// wide: 34 of 48 frames hold retained nodes once warm.
	wide = geom{blockBytes: 256, disks: 4, n: 5750, frames: 48, height: 4, internals: 34}
	// saturated: the tree's default 8 frames under 19 internal nodes.
	saturated = geom{blockBytes: 256, disks: 4, n: 3000, frames: 8, height: 4, internals: 19}
	// serving: a serving session's shape scaled down — two disks, 48
	// frames, a height-3 tree whose leaves outnumber the frames tenfold.
	serving = geom{blockBytes: 1024, disks: 2, n: 32768, frames: 48, height: 3, internals: 10}
)

func (g geom) config() pdm.Config {
	return pdm.Config{BlockBytes: g.blockBytes, MemBlocks: 1024, Disks: g.disks}
}

// open bulk-loads the shape's tree on vol and returns it with a session
// whose cache holds every node (for walking the tree without disturbing the
// cache under test) and the addresses of its internal nodes.
func (g geom) open(t testing.TB, vol *pdm.Volume, pool *pdm.Pool) (*Tree, *Session, []int64) {
	t.Helper()
	tr := bulkTree(t, vol, pool, g.n, nil)
	whole, err := tr.NewSessionOn(pool, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	var internals []int64
	level := []int64{tr.root}
	for depth := tr.height; depth > 1; depth-- {
		var next []int64
		for _, a := range level {
			internals = append(internals, a)
			p, err := whole.cache.Pin(a, internal)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j <= count(p); j++ {
				next = append(next, tr.child(p, j))
			}
			whole.cache.Unpin(p)
		}
		level = next
	}
	if tr.Height() != g.height || len(internals) != g.internals {
		t.Fatalf("shape drifted: height %d with %d internal nodes, want %d with %d",
			tr.Height(), len(internals), g.height, g.internals)
	}
	t.Cleanup(func() {
		whole.Close()
		tr.Close()
		if pool.InUse() != 0 {
			t.Errorf("frame leak: %d", pool.InUse())
		}
		if err := vol.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return tr, whole, internals
}

// residentOf counts the addrs resident in c, without I/O.
func residentOf(c *cache.Cache, addrs []int64) int {
	n := 0
	for _, a := range addrs {
		if p := c.Peek(a, internal); p != nil {
			c.Unpin(p)
			n++
		}
	}
	return n
}

// leafOf is the leaf address Get(key) ends at.
func leafOf(t *testing.T, tr *Tree, whole *Session, key uint64) int64 {
	t.Helper()
	path := descentPath(t, tr, whole.cache, key)
	return path[len(path)-1]
}

func uniformKeys(rng *rand.Rand, q, n int) []uint64 {
	keys := make([]uint64, q)
	for i := range keys {
		keys[i] = uint64(rng.Intn(2*n + 2))
	}
	return keys
}

// servingBatches draws batches 64-key batches the way a serving client
// does over shards range-partitioned trees of n keys each, and returns the
// sub-batches the first tree serves. Batches alternate between
// Zipf(1.1)-popular present keys scattered over the whole keyspace (a
// multiplicative hash, one to one for shards*n a power of two) and uniform
// keys, present or absent: half the batches can be served by a cache and
// half cannot.
func servingBatches(rng *rand.Rand, batches, shards, n int) [][]uint64 {
	const q = 64
	span := uint64(shards * n)
	zipf := rand.NewZipf(rng, 1.1, 1, span-1)
	out := make([][]uint64, batches)
	for j := range out {
		for i := 0; i < q; i++ {
			var k uint64
			if j%2 == 0 {
				k = 2 * ((zipf.Uint64()*0x9E3779B97F4A7C15 + 0x7F4A7C15) & (span - 1))
			} else {
				k = uint64(rng.Int63n(int64(2 * span)))
			}
			if k < 2*uint64(n) {
				out[j] = append(out[j], k)
			}
		}
	}
	return out
}

// TestGroupWidthFloorOnSaturatedCache is the first trap of sizing a fetch by
// the unretained frames: the default 8-frame cache is saturated by 19
// internal nodes, nothing is left over, and a width that followed the
// formula down to one block would serialize every level. The counts are the
// disk-count formula's, taken at the commit before the width followed the
// buffer manager.
func TestGroupWidthFloorOnSaturatedCache(t *testing.T) {
	const (
		coldReads, coldSteps = 74, 32
		nextReads, nextSteps = 75, 39
	)
	vol := pdm.MustVolume(saturated.config())
	pool := pdm.PoolFor(vol)
	tr, _, _ := saturated.open(t, vol, pool)
	if err := tr.Rehome(pool, saturated.frames); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for _, want := range [][2]uint64{{coldReads, coldSteps}, {nextReads, nextSteps}} {
		keys := uniformKeys(rng, 64, saturated.n)
		before := tr.Stats()
		if _, _, err := tr.GetBatch(keys); err != nil {
			t.Fatal(err)
		}
		after := tr.Stats()
		reads, steps := after.Reads-before.Reads, after.Steps-before.Steps
		if reads != want[0] || steps > want[1] {
			t.Fatalf("64-key batch: %d reads in %d steps, want %d reads in at most %d steps",
				reads, steps, want[0], want[1])
		}
	}
	if w := groupWidth(tr.cache, saturated.disks); w != 3 {
		t.Fatalf("width %d on a saturated 8-frame cache, want (8-1)/2 = 3", w)
	}
}

// TestWideGroupsSpareRetainedNodes is the second trap: a width of half the
// capacity would pin two 23-page groups of leaves in 48 frames and push out
// the 34 internal nodes the cache retains. Sized by the frames they leave,
// a hundred batches read leaves only.
func TestWideGroupsSpareRetainedNodes(t *testing.T) {
	vol := pdm.MustVolume(wide.config())
	pool := pdm.PoolFor(vol)
	tr, _, internals := wide.open(t, vol, pool)
	s, err := tr.NewSessionOn(pool, wide.frames, wide.disks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for b := 0; b < 100; b++ {
		keys := uniformKeys(rng, 64, wide.n)
		reads, misses := tr.Stats().Reads, s.CacheStats().Misses
		if _, _, err := s.GetBatch(keys); err != nil {
			t.Fatal(err)
		}
		reads, misses = tr.Stats().Reads-reads, s.CacheStats().Misses-misses
		if got := residentOf(s.cache, internals); got != len(internals) || s.cache.Retained() != len(internals) {
			t.Fatalf("batch %d: %d of %d internal nodes resident, %d pages retained",
				b, got, len(internals), s.cache.Retained())
		}
		// Every internal node was resident before and after, so every read
		// was a leaf's: one per miss, at most one per key.
		if reads != misses || reads > 64 {
			t.Fatalf("batch %d: %d reads for %d misses", b, reads, misses)
		}
	}
	if w := groupWidth(s.cache, wide.disks); w != (48-34-1)/2 {
		t.Fatalf("width %d with 34 of 48 frames retained, want 6", w)
	}
}

// TestColdSessionKeepsWhatItLoads: a cold session's first batch loads its
// internal nodes as retained pages during the batch, so the width of the
// leaf level has to be taken after them — a width taken once, before the
// root, would evict them at the leaves and the next batch would read them
// again.
func TestColdSessionKeepsWhatItLoads(t *testing.T) {
	vol := pdm.MustVolume(wide.config())
	pool := pdm.PoolFor(vol)
	tr, whole, internals := wide.open(t, vol, pool)
	s, err := tr.NewSessionOn(pool, wide.frames, wide.disks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := uniformKeys(rand.New(rand.NewSource(31)), 300, wide.n)
	visited := map[int64]bool{}
	leaves := map[int64]bool{}
	for _, k := range keys {
		path := descentPath(t, tr, whole.cache, k)
		for _, a := range path[:len(path)-1] {
			visited[a] = true
		}
		leaves[path[len(path)-1]] = true
	}
	for b := 0; b < 2; b++ {
		reads := tr.Stats().Reads
		if _, _, err := s.GetBatch(keys); err != nil {
			t.Fatal(err)
		}
		reads = tr.Stats().Reads - reads
		if got := residentOf(s.cache, internals); got != len(visited) || s.cache.Retained() != len(visited) {
			t.Fatalf("batch %d: %d internal nodes resident, %d pages retained, want the %d visited",
				b, got, s.cache.Retained(), len(visited))
		}
		if b == 1 && reads > uint64(len(leaves)) {
			t.Fatalf("second batch: %d reads over %d distinct leaves", reads, len(leaves))
		}
	}
}

// TestWarmedBatchCostsPerDiskMax is the floor the width exists to reach: a
// warmed batch whose missed leaves fit one group leaves as a single
// parallel read, so it costs exactly the largest number of them that share
// a disk — on both backends, with identical counters.
func TestWarmedBatchCostsPerDiskMax(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    geom
		q    int
	}{{"roomy", roomy, 20}, {"wide", wide, 6}} {
		t.Run(tc.name, func(t *testing.T) {
			var stats []pdm.Stats
			for _, backend := range []string{"mem", "file"} {
				cfg := tc.g.config()
				if backend == "file" {
					cfg.Dir = t.TempDir()
				}
				vol := pdm.MustVolume(cfg)
				pool := pdm.PoolFor(vol)
				tr, whole, _ := tc.g.open(t, vol, pool)
				s, err := tr.NewSessionOn(pool, tc.g.frames, tc.g.disks)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Warm(); err != nil {
					t.Fatal(err)
				}
				keys := uniformKeys(rand.New(rand.NewSource(37)), tc.q, tc.g.n)
				perDisk := make([]uint64, tc.g.disks)
				leaves := map[int64]bool{}
				for _, k := range keys {
					if a := leafOf(t, tr, whole, k); !leaves[a] {
						leaves[a] = true
						perDisk[int(a)%tc.g.disks]++
					}
				}
				if w := groupWidth(s.cache, tc.g.disks); len(leaves) > w || len(leaves) <= tc.g.disks {
					t.Fatalf("%d distinct leaves: want more than a disk-count group and at most one group of %d", len(leaves), w)
				}
				vol.Stats().Reset()
				if _, _, err := s.GetBatch(keys); err != nil {
					t.Fatal(err)
				}
				got := tr.Stats()
				var want uint64
				for _, n := range perDisk {
					want = max(want, n)
				}
				if got.Reads != uint64(len(leaves)) || got.Steps != want {
					t.Fatalf("%d reads in %d steps, want %d reads (per disk %v) in %d steps",
						got.Reads, got.Steps, len(leaves), perDisk, want)
				}
				stats = append(stats, got)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(stats[0], stats[1]) {
				t.Fatalf("mem %v != file %v", stats[0], stats[1])
			}
		})
	}
}

// TestGetBatchWidthSweep drives the width formula through every capacity
// from the three-frame minimum to 64, on 1 to 8 disks, from a cold cache:
// a batch never runs out of evictable pages, answers what a loop of Gets
// answers at no more reads, leaves no pin and no frame behind, and the
// cache's retained count is the number of internal nodes it holds.
func TestGetBatchWidthSweep(t *testing.T) {
	for _, disks := range []int{1, 2, 4, 8} {
		g := saturated
		g.disks = disks
		vol := pdm.MustVolume(g.config())
		pool := pdm.PoolFor(vol)
		tr, _, internals := g.open(t, vol, pool)
		rng := rand.New(rand.NewSource(int64(41 + disks)))
		for frames := 3; frames <= 64; frames++ {
			for _, q := range []int{1, 7, 64, 300} {
				keys := uniformKeys(rng, q, g.n)
				if err := tr.Rehome(pool, frames); err != nil {
					t.Fatal(err)
				}
				free := pool.Free()
				loopVals, loopFound := make([]uint64, q), make([]bool, q)
				reads := tr.Stats().Reads
				for i, k := range keys {
					var err error
					if loopVals[i], loopFound[i], err = tr.Get(k); err != nil {
						t.Fatal(err)
					}
				}
				loopReads := tr.Stats().Reads - reads

				if err := tr.Rehome(pool, frames); err != nil { // fails on a leaked pin
					t.Fatal(err)
				}
				reads = tr.Stats().Reads
				vals, found, err := tr.GetBatch(keys)
				if err != nil {
					t.Fatalf("D=%d frames=%d q=%d: %v", disks, frames, q, err)
				}
				batchReads := tr.Stats().Reads - reads
				if !reflect.DeepEqual(vals, loopVals) || !reflect.DeepEqual(found, loopFound) {
					t.Fatalf("D=%d frames=%d q=%d: batch answers differ from the Get loop's", disks, frames, q)
				}
				if batchReads > loopReads {
					t.Fatalf("D=%d frames=%d q=%d: batch %d reads > loop %d", disks, frames, q, batchReads, loopReads)
				}
				if got, held := tr.cache.Retained(), residentOf(tr.cache, internals); got != held {
					t.Fatalf("D=%d frames=%d q=%d: Retained() %d, %d internal nodes resident", disks, frames, q, got, held)
				}
				if err := tr.Rehome(pool, frames); err != nil {
					t.Fatal(err)
				}
				if pool.Free() != free {
					t.Fatalf("D=%d frames=%d q=%d: pool free %d, was %d", disks, frames, q, pool.Free(), free)
				}
			}
		}
	}
}

// TestGetBatchBesideForeignPins: an open scanner keeps its resident leaves
// pinned in the cache a batch fetches through, and the width does not count
// them. The batch narrows its groups instead of failing; it fails only
// when a single page cannot be pinned.
func TestGetBatchBesideForeignPins(t *testing.T) {
	for _, tc := range []struct {
		g    geom
		held int
	}{{roomy, 8}, {saturated, 4}} {
		vol := pdm.MustVolume(tc.g.config())
		pool := pdm.PoolFor(vol)
		tr, whole, _ := tc.g.open(t, vol, pool)
		s, err := tr.NewSessionOn(pool, tc.g.frames, tc.g.disks)
		if err != nil {
			t.Fatal(err)
		}
		// Hold the first leaves the way a scanner that found them resident
		// does, then look up one key in each of the others.
		var held []*cache.Page
		var keys []uint64
		seen := map[int64]bool{}
		for k := uint64(0); k < uint64(2*tc.g.n); k += 2 {
			a := leafOf(t, tr, whole, k)
			if seen[a] {
				continue
			}
			seen[a] = true
			if len(held) == tc.held {
				keys = append(keys, k)
				continue
			}
			p, err := s.cache.Pin(a, !internal)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, p)
		}
		if w := groupWidth(s.cache, tc.g.disks); len(keys) < 2*w || 2*w+tc.held <= tc.g.frames {
			t.Fatalf("%d cold leaves, width %d, %d held in %d frames: two groups would fit", len(keys), w, tc.held, tc.g.frames)
		}
		vals, found, err := s.GetBatch(keys)
		if err != nil {
			t.Fatalf("%d frames, %d held: %v", tc.g.frames, tc.held, err)
		}
		for i, k := range keys {
			if !found[i] || vals[i] != k/2 {
				t.Fatalf("key %d: (%d, %v)", k, vals[i], found[i])
			}
		}
		for _, p := range held {
			s.cache.Unpin(p)
		}
		if err := s.Close(); err != nil { // fails on a leaked pin
			t.Fatal(err)
		}
	}
}

// BenchmarkGetBatchGroups counts what a 64-key batch costs at the two
// shapes the width formula serves — roomy (the width is most of the cache)
// and saturated (it is the disk-count floor) — and at the serving shape,
// where zipf alternates skewed and uniform batches split over four shards
// (servingBatches) and the leaves the skewed ones hit earn the cache's hot
// class. One iteration is a fixed run of batches through a warmed session;
// reads/key, steps/key and allocs/key are the columns to read.
func BenchmarkGetBatchGroups(b *testing.B) {
	const q, batches = 64, 64
	for _, tc := range []struct {
		name    string
		g       geom
		batches func(rng *rand.Rand, n int) [][]uint64
	}{
		{"roomy", roomy, nil},
		{"saturated", saturated, nil},
		{"zipf", serving, func(rng *rand.Rand, n int) [][]uint64 { return servingBatches(rng, 4*batches, 4, n) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			vol := pdm.MustVolume(tc.g.config())
			pool := pdm.PoolFor(vol)
			tr, _, _ := tc.g.open(b, vol, pool)
			s, err := tr.NewSessionOn(pool, tc.g.frames, tc.g.disks)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.Warm(); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(43))
			var run [][]uint64
			if tc.batches != nil {
				run = tc.batches(rng, tc.g.n)
			} else {
				keys := uniformKeys(rng, q*batches, tc.g.n)
				for j := 0; j < batches; j++ {
					run = append(run, keys[j*q:(j+1)*q])
				}
			}
			keys := 0
			for _, batch := range run {
				keys += len(batch)
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs, before := ms.Mallocs, tr.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range run {
					if _, _, err := s.GetBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			after := tr.Stats()
			total := float64(b.N * keys)
			b.ReportMetric(float64(after.Reads-before.Reads)/total, "reads/key")
			b.ReportMetric(float64(after.Steps-before.Steps)/total, "steps/key")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/total, "allocs/key")
		})
	}
}
