package store

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"em/internal/btree"
	"em/internal/pdm"
)

// The benchmarks run at the repo benchmark's store-file geometry: 4 KiB
// blocks, two disks, a 32-frame cache, on the memory backend with no
// latency. One iteration is a fixed batch of operations and the per-item
// cost is reported as its own metric, so `make bench` (-benchtime 3x)
// prints meaningful numbers.

// openBench opens a store that never seals on its own — the benchmarks
// decide what is buffered — and returns it with what closes it and its
// volume.
func openBench(b *testing.B) (*Store, func()) {
	return openBenchFront(b, 1<<40)
}

// openBenchFront is openBench with fronts sealed at frontOps.
func openBenchFront(b *testing.B, frontOps int64) (*Store, func()) {
	b.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 4096, MemBlocks: 512, Disks: 2})
	s, err := Open(vol, pdm.PoolFor(vol), Config{FrontOps: frontOps, CacheFrames: 32})
	if err != nil {
		b.Fatal(err)
	}
	return s, func() {
		if err := s.Close(); err != nil {
			b.Error(err)
		}
		vol.Close()
	}
}

var benchSink uint64

// BenchmarkStoreScan times a 256-key Scan of a drained generation of 2^18
// keys (one store-file shard) under write fronts of 1 024, 8 192 and
// 32 768 buffered ops spread over the key space. The number to look at is
// ns/scan at 32 768 over ns/scan at 1 024: a scan that costs its range
// keeps it near 1 (the larger front adds only its 31 more ops in range), a
// scan that walks the front makes it the ratio of the fronts. In young the
// view holds, beside the same old generation and an empty front, a young
// generation of k − 1 = 3 fronts of 32 768 ops (k = ⌊√(2·2^18/32 768)⌋ =
// 4), about 80 of whose keys fall in each range: the price of its layer
// and its scan session.
func BenchmarkStoreScan(b *testing.B) {
	const (
		n        = 1 << 18 // preloaded keys 2, 4, .., 2n
		scanKeys = 256
		scans    = 256 // per iteration
	)
	for _, tc := range []struct {
		name  string
		front int
		young bool
	}{{"front=1024", 1024, false}, {"front=8192", 8192, false}, {"front=32768", 32768, false}, {"young", 0, true}} {
		b.Run(tc.name, func(b *testing.B) {
			frontOps := int64(1 << 40)
			if tc.young {
				frontOps = 32768
			}
			s, done := openBenchFront(b, frontOps)
			defer done()
			rng := rand.New(rand.NewSource(1))
			for _, j := range rng.Perm(n) {
				if err := s.Insert(2*uint64(j+1), uint64(j)); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			for f := 0; tc.young && f < 3; f++ {
				for i := 0; i < 32768; i++ {
					if err := s.Insert(2*uint64(rng.Intn(n))+1, 1); err != nil {
						b.Fatal(err)
					}
				}
				if err := waitDrain(s); err != nil {
					b.Fatal(err)
				}
			}
			s.mu.RLock()
			youngFronts := s.youngFronts
			s.mu.RUnlock()
			if tc.young && youngFronts != 3 {
				b.Fatalf("a young generation of %d fronts, want 3", youngFronts)
			}
			for s.FrontOps() < int64(tc.front) {
				if err := s.Insert(2*uint64(rng.Intn(n))+1, 1); err != nil {
					b.Fatal(err)
				}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < scans; j++ {
					lo := 2 * uint64(rng.Intn(n-scanKeys)+1)
					sc, err := s.Scan(lo, lo+2*(scanKeys-1))
					if err != nil {
						b.Fatal(err)
					}
					for {
						r, ok, err := sc.Next()
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
						benchSink += r.Val
					}
					sc.Close()
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			total := float64(b.N) * scans
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/scan")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/total, "allocs/scan")
		})
	}
}

// BenchmarkStoreDrain times drains of 32 768-op fronts over a generation
// of 2^18 keys (one store-file shard) and reports them per buffered
// operation: writes/op counts the drains' block writes and ns/op (in place
// of the framework's per-iteration column) their wall clock. The fronts
// update random preloaded keys, so the old tree keeps its size. In
// explicit, every front is flushed by Drain, which rewrites the whole
// tree. In threshold, every front is sealed by the threshold: with
// k = ⌊√(2·2^18/32 768)⌋ = 4, the first three go into the young
// generation and every fourth merges everything into the old tree, so
// at -benchtime 3x every drain is a young one.
func BenchmarkStoreDrain(b *testing.B) {
	const (
		n     = 1 << 18 // preloaded keys 2, 4, .., 2n
		front = 32768
	)
	for _, threshold := range []bool{false, true} {
		name := "explicit"
		if threshold {
			name = "threshold"
		}
		b.Run(name, func(b *testing.B) {
			var s *Store
			var done func()
			if threshold {
				s, done = openBenchFront(b, front)
			} else {
				s, done = openBench(b)
			}
			defer done()
			rng := rand.New(rand.NewSource(7))
			// Preload in rounds below the threshold, as store-file does.
			for i, j := range rng.Perm(n) {
				if err := s.Insert(2*uint64(j+1), uint64(j)); err != nil {
					b.Fatal(err)
				}
				if (i+1)%(front/2) == 0 || i+1 == n {
					if err := s.Drain(); err != nil {
						b.Fatal(err)
					}
				}
			}
			var writes uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < front-1; j++ {
					if err := s.Insert(2*uint64(rng.Intn(n)+1), uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
				w0 := s.Stats().Writes
				b.StartTimer()
				var err error
				if threshold {
					// The front's last op seals it; the drain runs in the
					// background until waitDrain returns.
					if err = s.Insert(2*uint64(rng.Intn(n)+1), uint64(i)); err == nil {
						err = waitDrain(s)
					}
				} else if err = s.Insert(2*uint64(rng.Intn(n)+1), uint64(i)); err == nil {
					err = s.Drain()
				}
				if err != nil {
					b.Fatal(err)
				}
				writes += s.Stats().Writes - w0
			}
			ops := float64(b.N) * front
			b.ReportMetric(float64(writes)/ops, "writes/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/op")
		})
	}
}

// BenchmarkStoreFrontOps times the two point costs of the in-memory
// overlays with a full front (32 768 ops) over a full sealed overlay, as
// in the middle of a drain: Insert of a fresh key, which pays the
// overlay's put, and Get of a key no buffered op mentions, which pays a
// miss in both overlays — and, in get-absent-young, in the young
// directory — before it reaches the (here one-leaf) old generation;
// get-absent-session makes the same misses through a store Session, which
// reads the old generation through its private cache.
func BenchmarkStoreFrontOps(b *testing.B) {
	const (
		front = 32768
		batch = front / 4 // per iteration
	)
	// fullFronts opens a store holding front ops in each overlay. The
	// sealed one is installed by hand and stays — a drain that never
	// finishes — so no background work runs beside the measurement.
	fullFronts := func(b *testing.B, rng *rand.Rand) (*Store, func()) {
		s, done := openBench(b)
		for i := 0; i < 2*front; i++ {
			if i == front {
				s.mu.Lock()
				s.sealedMem, s.frontMem = s.frontMem, &overlay{}
				s.mu.Unlock()
			}
			if err := s.Insert(rng.Uint64(), 1); err != nil {
				b.Fatal(err)
			}
		}
		return s, done
	}
	b.Run("insert-fresh", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, done := fullFronts(b, rng) // a new one each time: the front must not grow
			b.StartTimer()
			for j := 0; j < batch; j++ {
				if err := s.Insert(rng.Uint64(), 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			done()
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/insert")
	})
	// get-absent-young adds a full young directory of 3·front keys — what
	// store-file's shards hold before the pass-closing compaction — over
	// an empty young tree: a get that misses the directory never reads it.
	for _, tc := range []struct {
		name           string
		young, session bool
	}{{"get-absent", false, false}, {"get-absent-young", true, false}, {"get-absent-session", false, true}} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			s, done := fullFronts(b, rng)
			defer done()
			var get func(uint64) (uint64, bool, error) = s.Get
			if tc.session {
				sess, err := s.NewSession(0, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer sess.Close()
				get = sess.Get
			}
			if tc.young {
				ops := &overlay{}
				for i := 0; i < 3*front; i++ {
					ops.put(Op{Key: rng.Uint64(), Seq: uint64(i)<<1 | uint64(i&1)})
				}
				tree, err := btree.New(s.vol, s.pool, &btree.Options{CacheFrames: 3})
				if err != nil {
					b.Fatal(err)
				}
				s.mu.Lock()
				s.young = newGeneration(tree, (*keyDir)(nil).merge(ops))
				s.mu.Unlock()
			}
			runtime.GC() // the set-up's garbage is not the probes' cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					v, ok, err := get(rng.Uint64())
					if err != nil || ok {
						b.Fatalf("Get of an absent key: (%d, %v, %v)", v, ok, err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/get")
		})
	}
}

// BenchmarkOverlay times the overlay alone at a full front — put of a fresh
// random key, get of an absent key through a fresh finger, and the same
// get through one finger over sorted 32-key batches (one shard's half of a 64-key GetBatch): the
// numbers chunkOps and the search loops were picked on.
func BenchmarkOverlay(b *testing.B) {
	const front = 32768
	fill := func(rng *rand.Rand) *overlay {
		o := &overlay{}
		for i := 0; i < front; i++ {
			o.put(Op{Key: rng.Uint64(), Val: 1, Seq: uint64(i) << 1})
		}
		return o
	}
	b.Run("put-fresh", func(b *testing.B) {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < b.N; i++ {
			fill(rng)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/front, "ns/put")
	})
	b.Run("get-absent", func(b *testing.B) {
		rng := rand.New(rand.NewSource(5))
		o := fill(rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < front; j++ {
				f := finger{o: o} // a one-key probe, as Get makes
				if op, ok := f.get(rng.Uint64()); ok {
					benchSink += op.Val
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/front, "ns/get")
	})
	// Sorted 32-key batches through a finger: keys spread over the whole
	// front, and keys packed into the key space of about four chunks
	// (3·chunkOps ops at three quarters full).
	for _, tc := range []struct {
		name   string
		window uint64 // each batch's keys fall within this much key space
	}{{"finger-sparse", math.MaxUint64}, {"finger-dense", math.MaxUint64 / front * 3 * chunkOps}} {
		b.Run(tc.name, func(b *testing.B) {
			const batch = 32
			rng := rand.New(rand.NewSource(6))
			o := fill(rng)
			keys := make([]uint64, front)
			for i := 0; i < front; i += batch {
				at := rng.Uint64() % (math.MaxUint64 - tc.window + 1)
				for j := i; j < i+batch; j++ {
					keys[j] = at + rng.Uint64()%tc.window
				}
				slices.Sort(keys[i : i+batch])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < front; j += batch {
					f := finger{o: o}
					for _, k := range keys[j : j+batch] {
						if op, ok := f.get(k); ok {
							benchSink += op.Val
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/front, "ns/get")
		})
	}
}
