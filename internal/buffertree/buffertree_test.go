package buffertree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

func newEnv(t testing.TB) (*pdm.Volume, *pdm.Pool) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 96, MemBlocks: 16, Disks: 1})
	return vol, pdm.PoolFor(vol)
}

func seal(t *testing.T, tr *Tree) map[uint64]uint64 {
	t.Helper()
	f, err := tr.Seal()
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint64]uint64{}
	var prev uint64
	first := true
	vol := f.Vol()
	pool := pdm.NewPool(vol.BlockBytes(), 4)
	err = stream.ForEach(f, pool, func(r record.Record) error {
		if !first && r.Key <= prev {
			t.Fatalf("seal output not strictly sorted: %d after %d", r.Key, prev)
		}
		prev, first = r.Key, false
		out[r.Key] = r.Val
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInsertOnly(t *testing.T) {
	vol, pool := newEnv(t)
	tr, err := New(vol, pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), uint64(i*7)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Ops() != int64(n) {
		t.Fatalf("ops = %d", tr.Ops())
	}
	got := seal(t, tr)
	if len(got) != n {
		t.Fatalf("sealed %d keys, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[uint64(i)] != uint64(i*7) {
			t.Fatalf("key %d = %d", i, got[uint64(i)])
		}
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	vol, pool := newEnv(t)
	tr, _ := New(vol, pool, Config{})
	for round := 0; round < 5; round++ {
		for k := uint64(0); k < 300; k++ {
			tr.Insert(k, uint64(round)*1000+k)
		}
	}
	got := seal(t, tr)
	if len(got) != 300 {
		t.Fatalf("got %d keys", len(got))
	}
	for k := uint64(0); k < 300; k++ {
		if got[k] != 4000+k {
			t.Fatalf("key %d = %d, want %d (last round)", k, got[k], 4000+k)
		}
	}
}

func TestDeletes(t *testing.T) {
	vol, pool := newEnv(t)
	tr, _ := New(vol, pool, Config{})
	for k := uint64(0); k < 1000; k++ {
		tr.Insert(k, k)
	}
	for k := uint64(0); k < 1000; k += 2 {
		tr.Delete(k)
	}
	tr.Delete(5000) // absent key: no-op
	got := seal(t, tr)
	if len(got) != 500 {
		t.Fatalf("got %d keys, want 500", len(got))
	}
	for k := uint64(1); k < 1000; k += 2 {
		if got[k] != k {
			t.Fatalf("odd key %d missing", k)
		}
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	vol, pool := newEnv(t)
	tr, _ := New(vol, pool, Config{})
	tr.Insert(42, 1)
	tr.Delete(42)
	tr.Insert(42, 2)
	got := seal(t, tr)
	if got[42] != 2 {
		t.Fatalf("key 42 = %d, want 2 (reinsert after delete)", got[42])
	}
}

func TestSealedRejectsUpdates(t *testing.T) {
	vol, pool := newEnv(t)
	tr, _ := New(vol, pool, Config{})
	tr.Insert(1, 1)
	if _, err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(2, 2); err != ErrSealed {
		t.Fatalf("insert after seal: %v", err)
	}
	if err := tr.Delete(1); err != ErrSealed {
		t.Fatalf("delete after seal: %v", err)
	}
	if _, err := tr.Seal(); err != ErrSealed {
		t.Fatalf("double seal: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	vol, pool := newEnv(t)
	if _, err := New(vol, pool, Config{Fanout: 1}); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := New(vol, pool, Config{Fanout: 4, BufferRecords: 1}); err == nil {
		t.Fatal("buffer of 1 accepted")
	}
}

func TestHeavyDuplicateKeys(t *testing.T) {
	vol, pool := newEnv(t)
	tr, _ := New(vol, pool, Config{Fanout: 4, BufferRecords: 32})
	// Thousands of updates to only three distinct keys force splitter
	// degeneracy; the tree must still terminate and resolve correctly.
	for i := 0; i < 3000; i++ {
		tr.Insert(uint64(i%3), uint64(i))
	}
	got := seal(t, tr)
	if len(got) != 3 {
		t.Fatalf("got %d keys, want 3", len(got))
	}
	if got[0] != 2997 || got[1] != 2998 || got[2] != 2999 {
		t.Fatalf("latest values wrong: %v", got)
	}
}

func TestAmortizedInsertBeatsBTree(t *testing.T) {
	// Experiment T6's core claim: N random inserts into a buffer tree cost
	// a small multiple of Sort(N) ≪ N·log_B N for the B-tree.
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 32, Disks: 1})
	pool := pdm.PoolFor(vol)
	n := 5000
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(n)

	vol.Stats().Reset()
	bt, err := New(vol, pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := bt.Insert(uint64(k), uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bt.Seal(); err != nil {
		t.Fatal(err)
	}
	bufIO := vol.Stats().Total()

	vol.Stats().Reset()
	bt2, err := btree.New(vol, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := bt2.Insert(uint64(k), uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	bt2.Close()
	btreeIO := vol.Stats().Total()

	if bufIO*3 >= btreeIO {
		t.Fatalf("buffer tree (%d I/Os) should beat B-tree inserts (%d I/Os) by a wide margin", bufIO, btreeIO)
	}
}

// Property: the buffer tree's sealed contents equal a map reference for
// arbitrary operation sequences.
func TestQuickMatchesMap(t *testing.T) {
	type qop struct {
		Key uint64
		Val uint64
		Del bool
	}
	f := func(ops []qop) bool {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 96, MemBlocks: 12, Disks: 1})
		pool := pdm.PoolFor(vol)
		tr, err := New(vol, pool, Config{Fanout: 3, BufferRecords: 16})
		if err != nil {
			return false
		}
		ref := map[uint64]uint64{}
		for _, o := range ops {
			k := o.Key % 40
			if o.Del {
				if err := tr.Delete(k); err != nil {
					return false
				}
				delete(ref, k)
			} else {
				if err := tr.Insert(k, o.Val); err != nil {
					return false
				}
				ref[k] = o.Val
			}
		}
		out, err := tr.Seal()
		if err != nil {
			return false
		}
		got := map[uint64]uint64{}
		if err := stream.ForEach(out, pool, func(r record.Record) error {
			got[r.Key] = r.Val
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
