package btree

import (
	"math/rand"
	"testing"
	"time"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// forEachBackend runs fn against a memory-backed and a file-backed volume
// of identical shape, mirroring the pdm and stream harnesses.
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

// nodeCount walks tr from the root and returns how many nodes it holds.
func nodeCount(t *testing.T, tr *Tree) uint64 {
	t.Helper()
	nodes := uint64(1)
	level := []int64{tr.root}
	for depth := tr.height; depth > 1; depth-- {
		var next []int64
		for _, a := range level {
			p, err := tr.cache.Pin(a, internal)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j <= count(p); j++ {
				next = append(next, tr.child(p, j))
			}
			tr.cache.Unpin(p)
		}
		nodes += uint64(len(next))
		level = next
	}
	return nodes
}

// loaded is what one bulk load left on the volume: the key/value pairs the
// tree holds, the Stats the load plus close charged, the tree's node count
// and the input file's block count.
type loaded struct {
	kvs    [][2]uint64
	st     pdm.Stats
	nodes  uint64
	blocks int
}

// loadAndCollect bulk-loads vs on a fresh cfg-shaped volume, closes the
// tree, and reports what the load left behind.
func loadAndCollect(t *testing.T, cfg pdm.Config, vs []record.Record, cacheFrames int, opts *BulkLoadOptions) loaded {
	t.Helper()
	vol := pdm.MustVolume(cfg)
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	tr, err := BulkLoad(vol, pool, cacheFrames, f, opts)
	if err != nil {
		t.Fatalf("opts=%+v: %v", opts, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got := loaded{st: vol.Stats().Snapshot(), blocks: f.Blocks()}
	// Reopen a read path over the same volume to verify what actually
	// reached the disks — not what a cache might still be holding.
	tr2, err := New(vol, pool, cacheFrames)
	if err != nil {
		t.Fatal(err)
	}
	tr2.root, tr2.height, tr2.n = tr.root, tr.height, tr.n
	got.nodes = nodeCount(t, tr2)
	if err := tr2.Range(0, ^uint64(0), func(k, v uint64) error {
		got.kvs = append(got.kvs, [2]uint64{k, v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("opts=%+v: leaked %d frames", opts, pool.InUse())
	}
	return got
}

// TestBulkLoadWriteBehindMatchesSync bulk-loads the same sorted file at
// widths 1, 2 and 4, synchronously and reading ahead, and asserts the exact
// write-once cost: every record reads back from disk, the load writes
// exactly the finished tree's nodes (counted by a walk from the root) and
// reads exactly the input's blocks. Batching the leaves D at a time moves
// parallel steps, never the transfer counts: no width costs more steps
// than width 1.
func TestBulkLoadWriteBehindMatchesSync(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 256, MemBlocks: 32, Disks: 4}
	for _, n := range []int{0, 1, 100, 3000} {
		vs := sortedRecords(n)
		var serial uint64
		for _, opts := range []*BulkLoadOptions{nil, {Width: 2}, {Width: 4, Async: true}} {
			got := loadAndCollect(t, cfg, vs, 8, opts)
			if len(got.kvs) != n {
				t.Fatalf("opts=%+v n=%d: %d records read back", opts, n, len(got.kvs))
			}
			for i, kv := range got.kvs {
				if kv != [2]uint64{vs[i].Key, vs[i].Val} {
					t.Fatalf("opts=%+v n=%d: entry %d is %v, want %v", opts, n, i, kv, vs[i])
				}
			}
			if got.st.Writes != got.nodes || got.st.Reads != uint64(got.blocks) {
				t.Fatalf("opts=%+v n=%d: r=%d w=%d, want the input's %d blocks read and the tree's %d nodes written",
					opts, n, got.st.Reads, got.st.Writes, got.blocks, got.nodes)
			}
			if opts == nil {
				serial = got.st.Steps
			} else if got.st.Steps > serial {
				t.Fatalf("opts=%+v n=%d: %d steps, above width 1's %d", opts, n, got.st.Steps, serial)
			}
		}
	}
}

// TestWriteBehindEvictionRace is the cache/write-behind interaction
// property: while a batched leaf flush's deadline is outstanding on a latency
// volume, the internal-level build evicts dirty pages through the same
// volume. No dirty page may be lost (every key must read back from disk)
// and none may be written twice (total writes must equal the tree's node
// count, from a walk from the root, and reads the input's blocks). Runs on
// both backends, which must agree; `make ci` runs it under the race
// detector.
func TestWriteBehindEvictionRace(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 256, MemBlocks: 40, Disks: 4, DiskLatency: 100 * time.Microsecond}
	rng := rand.New(rand.NewSource(0xF11))
	sizes := []int{1, 500, 2000}
	for i := 0; i < 3; i++ {
		sizes = append(sizes, 1+rng.Intn(4000))
	}
	for _, n := range sizes {
		vs := sortedRecords(n)
		var want *pdm.Stats
		forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
			f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
			if err != nil {
				t.Fatal(err)
			}
			vol.Stats().Reset()
			// The minimum legal cache keeps the internal build evicting
			// constantly while leaf batches are still travelling.
			tr, err := BulkLoad(vol, pool, 3, f, &BulkLoadOptions{Width: 4, Async: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			st := vol.Stats().Snapshot()
			if nodes := nodeCount(t, tr); st.Writes != nodes || st.Reads != uint64(f.Blocks()) {
				t.Fatalf("n=%d: r=%d w=%d, want the input's %d blocks read and the tree's %d nodes written (lost or doubled page)",
					n, st.Reads, st.Writes, f.Blocks(), nodes)
			}
			var kvs [][2]uint64
			if err := tr.Range(0, ^uint64(0), func(k, v uint64) error {
				kvs = append(kvs, [2]uint64{k, v})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// The walk and the verification Range repopulated the flushed
			// cache; close again to hand its frames back.
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if len(kvs) != n {
				t.Fatalf("n=%d: %d records survived the race", n, len(kvs))
			}
			for i, kv := range kvs {
				if kv[0] != vs[i].Key || kv[1] != vs[i].Val {
					t.Fatalf("n=%d: record %d corrupted: %v", n, i, kv)
				}
			}
			if want == nil {
				want = &st
			} else if st.Reads != want.Reads || st.Writes != want.Writes {
				t.Fatalf("n=%d: backends disagree: r=%d w=%d vs r=%d w=%d", n, st.Reads, st.Writes, want.Reads, want.Writes)
			}
			if pool.InUse() != 0 {
				t.Fatalf("n=%d: leaked %d frames", n, pool.InUse())
			}
		})
	}
}
