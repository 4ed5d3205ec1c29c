package btree

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"em/internal/pdm"
)

// Deletion interacting with the query paths: after merges, redistributions,
// and root collapses the prefetched Scanner and the level-batched GetBatch
// must still serve exactly the surviving records, at a counted-read cost no
// worse than the synchronous reference walk.

// buildDeleted inserts n records and deletes a pseudo-random subset,
// returning the tree and the surviving reference map.
func buildDeleted(t *testing.T, vol *pdm.Volume, pool *pdm.Pool, n int, seed int64) (*Tree, map[uint64]uint64) {
	t.Helper()
	tr, err := New(vol, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		k, v := uint64(i*3), uint64(i*7+1)
		if _, err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			continue // survivor
		}
		k := uint64(i * 3)
		removed, err := tr.Delete(k)
		if err != nil {
			t.Fatal(err)
		}
		if !removed {
			t.Fatalf("Delete(%d) found nothing", k)
		}
		delete(ref, k)
	}
	// Deleting absent keys is a no-op.
	for _, k := range []uint64{1, 5, uint64(3*n + 10)} {
		if removed, err := tr.Delete(k); err != nil || removed {
			t.Fatalf("Delete(absent %d) = (%v, %v)", k, removed, err)
		}
	}
	return tr, ref
}

func TestScannerAfterDeletes(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 256, MemBlocks: 64, Disks: 2}
	forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		tr, ref := buildDeleted(t, vol, pool, 900, 17)
		if int(tr.Len()) != len(ref) {
			t.Fatalf("tree holds %d records, reference %d", tr.Len(), len(ref))
		}

		// Synchronous reference walk over a cold cache.
		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
		syncGot := map[uint64]uint64{}
		before := atomic.LoadUint64(&vol.Stats().Reads)
		if err := tr.Range(0, ^uint64(0), func(k, v uint64) error {
			syncGot[k] = v
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		syncReads := atomic.LoadUint64(&vol.Stats().Reads) - before

		// Prefetched scan from the same cold state.
		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
		before = atomic.LoadUint64(&vol.Stats().Reads)
		sc, err := tr.NewScanner(pool, 0, ^uint64(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		scanGot := map[uint64]uint64{}
		lastKey, first := uint64(0), true
		for {
			r, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if !first && r.Key <= lastKey {
				t.Fatalf("scan out of order: %d after %d", r.Key, lastKey)
			}
			lastKey, first = r.Key, false
			scanGot[r.Key] = r.Val
		}
		sc.Close()
		scanReads := atomic.LoadUint64(&vol.Stats().Reads) - before

		for _, got := range []map[uint64]uint64{syncGot, scanGot} {
			if len(got) != len(ref) {
				t.Fatalf("walk saw %d records, want %d", len(got), len(ref))
			}
			for k, v := range ref {
				if got[k] != v {
					t.Fatalf("walk[%d] = %d, want %d", k, got[k], v)
				}
			}
		}
		if scanReads > syncReads {
			t.Fatalf("prefetched scan cost %d reads, sync reference %d", scanReads, syncReads)
		}
		// Flushing the tree's cache leaves only leaked frames in use.
		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
		if got := pool.InUse(); got != 0 {
			t.Fatalf("scanner leaked %d frames", got)
		}
	})
}

func TestGetBatchAfterDeletes(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 256, MemBlocks: 64, Disks: 2}
	forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		tr, ref := buildDeleted(t, vol, pool, 700, 23)

		// Query a mix of survivors, deleted keys, and never-inserted keys.
		keys := make([]uint64, 0, 3*700)
		for i := 0; i < 700; i++ {
			keys = append(keys, uint64(i*3), uint64(i*3+1))
		}

		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
		before := atomic.LoadUint64(&vol.Stats().Reads)
		var syncReads uint64
		syncVals := make([]uint64, len(keys))
		syncFound := make([]bool, len(keys))
		for i, k := range keys {
			v, f, err := tr.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			syncVals[i], syncFound[i] = v, f
		}
		syncReads = atomic.LoadUint64(&vol.Stats().Reads) - before

		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
		before = atomic.LoadUint64(&vol.Stats().Reads)
		vals, found, err := tr.GetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		batchReads := atomic.LoadUint64(&vol.Stats().Reads) - before

		for i, k := range keys {
			want, ok := ref[k]
			if found[i] != ok || syncFound[i] != ok {
				t.Fatalf("found[%d] (key %d) = %v/%v, want %v", i, k, found[i], syncFound[i], ok)
			}
			if ok && (vals[i] != want || syncVals[i] != want) {
				t.Fatalf("vals[%d] (key %d) = %d/%d, want %d", i, k, vals[i], syncVals[i], want)
			}
		}
		if batchReads > syncReads {
			t.Fatalf("GetBatch cost %d reads, per-key reference %d", batchReads, syncReads)
		}
	})
}

// TestSessionQueriesAfterDeletes drives the session paths (the ones the
// store's reads ride) over a deletion-heavy tree.
func TestSessionQueriesAfterDeletes(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 256, MemBlocks: 64, Disks: 2}
	forEachBackend(t, cfg, func(t *testing.T, vol *pdm.Volume, pool *pdm.Pool) {
		tr, ref := buildDeleted(t, vol, pool, 500, 29)
		sess, err := tr.NewSessionOn(pool, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, 0, 1000)
		for i := 0; i < 500; i++ {
			keys = append(keys, uint64(i*3), uint64(i*3+2))
		}
		vals, found, err := sess.GetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			want, ok := ref[k]
			if found[i] != ok || (ok && vals[i] != want) {
				t.Fatalf("session GetBatch key %d: (%d,%v), want (%d,%v)", k, vals[i], found[i], want, ok)
			}
		}
		sc, err := sess.NewScanner(30, 900, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for {
			r, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if r.Key < 30 || r.Key > 900 {
				t.Fatalf("scan yielded %d outside [30,900]", r.Key)
			}
			if want := ref[r.Key]; want != r.Val {
				t.Fatalf("scan[%d] = %d, want %d", r.Key, r.Val, want)
			}
			seen++
		}
		sc.Close()
		want := 0
		for k := range ref {
			if k >= 30 && k <= 900 {
				want++
			}
		}
		if seen != want {
			t.Fatalf("session scan saw %d records, want %d", seen, want)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
		if got := pool.InUse(); got != 0 {
			t.Fatalf("session leaked %d frames", got)
		}
	})
}
