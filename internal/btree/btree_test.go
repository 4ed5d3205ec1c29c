package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

func newEnv(t testing.TB) (*pdm.Volume, *pdm.Pool) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 128, MemBlocks: 32, Disks: 1})
	return vol, pdm.PoolFor(vol)
}

func newTree(t testing.TB) (*Tree, *pdm.Volume, *pdm.Pool) {
	t.Helper()
	vol, pool := newEnv(t)
	tr, err := New(vol, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, vol, pool
}

func TestBlockTooSmall(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 48, MemBlocks: 8, Disks: 1})
	if _, err := New(vol, pdm.PoolFor(vol), &Options{CacheFrames: 4}); err == nil {
		t.Fatal("48-byte blocks should be rejected")
	}
}

func TestEmptyTree(t *testing.T) {
	tr, _, _ := newTree(t)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("fresh tree should be empty with height 1")
	}
	if _, ok, err := tr.Get(5); err != nil || ok {
		t.Fatalf("get on empty: ok=%v err=%v", ok, err)
	}
	if _, _, ok, err := tr.Min(); err != nil || ok {
		t.Fatalf("min on empty: ok=%v err=%v", ok, err)
	}
	if removed, err := tr.Delete(5); err != nil || removed {
		t.Fatalf("delete on empty: %v %v", removed, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGetSequential(t *testing.T) {
	tr, _, _ := newTree(t)
	n := uint64(500)
	for k := uint64(0); k < n; k++ {
		added, err := tr.Insert(k, k*3)
		if err != nil {
			t.Fatal(err)
		}
		if !added {
			t.Fatalf("key %d reported duplicate", k)
		}
	}
	if tr.Len() != int64(n) {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, expected a multi-level tree", tr.Height())
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := tr.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != k*3 {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok, _ := tr.Get(n + 100); ok {
		t.Fatal("absent key found")
	}
}

func TestInsertOverwrite(t *testing.T) {
	tr, _, _ := newTree(t)
	if _, err := tr.Insert(7, 1); err != nil {
		t.Fatal(err)
	}
	added, err := tr.Insert(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Fatal("overwrite reported as new key")
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
	v, ok, _ := tr.Get(7)
	if !ok || v != 2 {
		t.Fatalf("get = %d,%v", v, ok)
	}
}

func TestInsertRandomOrder(t *testing.T) {
	tr, _, _ := newTree(t)
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(1000)
	for _, k := range keys {
		if _, err := tr.Insert(uint64(k), uint64(k)+1); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		v, ok, err := tr.Get(uint64(k))
		if err != nil || !ok || v != uint64(k)+1 {
			t.Fatalf("get(%d) = %d,%v,%v", k, v, ok, err)
		}
	}
}

func TestRange(t *testing.T) {
	tr, _, _ := newTree(t)
	for k := uint64(0); k < 300; k += 3 { // keys 0,3,6,...,297
		if _, err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tr.Range(10, 50, func(k, v uint64) error {
		got = append(got, k)
		if k != v {
			t.Fatal("value mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for k := uint64(12); k <= 48; k += 3 {
		want = append(want, k)
	}
	if len(got) != len(want) {
		t.Fatalf("range returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Empty range.
	count := 0
	tr.Range(1000, 2000, func(k, v uint64) error { count++; return nil })
	if count != 0 {
		t.Fatal("empty range reported records")
	}
}

func TestMin(t *testing.T) {
	tr, _, _ := newTree(t)
	for _, k := range []uint64{50, 20, 90, 10, 70} {
		tr.Insert(k, k*2)
	}
	k, v, ok, err := tr.Min()
	if err != nil || !ok || k != 10 || v != 20 {
		t.Fatalf("min = %d,%d,%v,%v", k, v, ok, err)
	}
}

func TestDeleteAll(t *testing.T) {
	tr, _, _ := newTree(t)
	rng := rand.New(rand.NewSource(2))
	keys := rng.Perm(800)
	for _, k := range keys {
		tr.Insert(uint64(k), uint64(k))
	}
	maxHeight := tr.Height()
	del := rng.Perm(800)
	for i, k := range del {
		removed, err := tr.Delete(uint64(k))
		if err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
		if !removed {
			t.Fatalf("key %d missing at delete", k)
		}
		if tr.Len() != int64(800-i-1) {
			t.Fatalf("len = %d after %d deletes", tr.Len(), i+1)
		}
		// Spot-check an undeleted key stays findable.
		if i+1 < 800 {
			probe := uint64(del[800-1])
			if i < 799 {
				v, ok, err := tr.Get(probe)
				if err != nil || !ok || v != probe {
					t.Fatalf("probe %d lost after deleting %d", probe, k)
				}
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatal("tree not empty")
	}
	if tr.Height() != 1 {
		t.Fatalf("emptied tree height = %d (was %d), should collapse to 1", tr.Height(), maxHeight)
	}
	if removed, _ := tr.Delete(5); removed {
		t.Fatal("delete from empty tree succeeded")
	}
}

func TestDeleteInterleaved(t *testing.T) {
	tr, _, _ := newTree(t)
	live := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(400))
		if rng.Intn(2) == 0 {
			tr.Insert(k, k+1)
			live[k] = k + 1
		} else {
			removed, err := tr.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			_, had := live[k]
			if removed != had {
				t.Fatalf("delete(%d) = %v, want %v", k, removed, had)
			}
			delete(live, k)
		}
	}
	if tr.Len() != int64(len(live)) {
		t.Fatalf("len = %d, want %d", tr.Len(), len(live))
	}
	for k, v := range live {
		got, ok, err := tr.Get(k)
		if err != nil || !ok || got != v {
			t.Fatalf("get(%d) = %d,%v,%v want %d", k, got, ok, err, v)
		}
	}
}

func TestSearchIOLogarithmic(t *testing.T) {
	// With a tiny cache, a point lookup should cost about height block
	// reads — the survey's Θ(log_B N) search bound.
	vol, pool := newEnv(t)
	tr, err := New(vol, pool, &Options{CacheFrames: 3}) // minimal cache: cannot retain the path
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		if _, err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	h := tr.Height()
	vol.Stats().Reset()
	const probes = 50
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < probes; i++ {
		k := uint64(rng.Intn(2000))
		if _, ok, err := tr.Get(k); err != nil || !ok {
			t.Fatal("probe failed")
		}
	}
	perProbe := float64(vol.Stats().Reads) / probes
	if perProbe > float64(h)+1 {
		t.Fatalf("search cost %.1f reads per probe, height %d", perProbe, h)
	}
}

func TestBulkLoad(t *testing.T) {
	vol, pool := newEnv(t)
	n := 1000
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: uint64(i * 2), Val: uint64(i)}
	}
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BulkLoad(vol, pool, 8, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != int64(n) {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(uint64(i * 2))
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("get(%d) = %d,%v,%v", i*2, v, ok, err)
		}
	}
	if _, ok, _ := tr.Get(1); ok {
		t.Fatal("absent odd key found")
	}
	// Full range scan returns everything in order.
	var keys []uint64
	tr.Range(0, ^uint64(0), func(k, v uint64) error {
		keys = append(keys, k)
		return nil
	})
	if len(keys) != n {
		t.Fatalf("scan returned %d keys", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("scan out of order")
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	vol, pool := newEnv(t)
	empty := stream.NewFile[record.Record](vol, record.RecordCodec{})
	tr, err := BulkLoad(vol, pool, 8, empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("empty bulk load wrong shape")
	}
	one, err := stream.FromSlice(vol, pool, record.RecordCodec{}, []record.Record{{Key: 9, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := BulkLoad(vol, pool, 8, one, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tr2.Get(9)
	if !ok || v != 1 {
		t.Fatal("single-record bulk load broken")
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	vol, pool := newEnv(t)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, []record.Record{
		{Key: 5}, {Key: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BulkLoad(vol, pool, 8, f, nil); err == nil {
		t.Fatal("unsorted input accepted")
	}
	dup, err := stream.FromSlice(vol, pool, record.RecordCodec{}, []record.Record{
		{Key: 5}, {Key: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BulkLoad(vol, pool, 8, dup, nil); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestBulkLoadInsertAfter(t *testing.T) {
	vol, pool := newEnv(t)
	recs := make([]record.Record, 200)
	for i := range recs {
		recs[i] = record.Record{Key: uint64(i * 10), Val: uint64(i)}
	}
	f, _ := stream.FromSlice(vol, pool, record.RecordCodec{}, recs)
	tr, err := BulkLoad(vol, pool, 8, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed inserts and deletes after bulk load must keep working.
	for i := 0; i < 200; i++ {
		if _, err := tr.Insert(uint64(i*10+5), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 2 {
		if removed, err := tr.Delete(uint64(i * 10)); err != nil || !removed {
			t.Fatalf("delete(%d): %v %v", i*10, removed, err)
		}
	}
	if tr.Len() != 300 {
		t.Fatalf("len = %d, want 300", tr.Len())
	}
	for i := 0; i < 200; i++ {
		if v, ok, _ := tr.Get(uint64(i*10 + 5)); !ok || v != uint64(i) {
			t.Fatalf("inserted key %d lost", i*10+5)
		}
	}
}

func TestBulkLoadIOCheaperThanInserts(t *testing.T) {
	vol, pool := newEnv(t)
	n := 2000
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: uint64(i), Val: uint64(i)}
	}
	f, _ := stream.FromSlice(vol, pool, record.RecordCodec{}, recs)
	vol.Stats().Reset()
	if _, err := BulkLoad(vol, pool, 8, f, nil); err != nil {
		t.Fatal(err)
	}
	bulkIO := vol.Stats().Total()
	vol.Stats().Reset()
	tr, _ := New(vol, pool, nil)
	rng := rand.New(rand.NewSource(6))
	for _, i := range rng.Perm(n) { // random order: the realistic case
		tr.Insert(recs[i].Key, recs[i].Val)
	}
	tr.Close()
	insertIO := vol.Stats().Total()
	if bulkIO*2 >= insertIO {
		t.Fatalf("bulk load (%d I/Os) should be far cheaper than inserts (%d I/Os)", bulkIO, insertIO)
	}
}

// Property: the tree agrees with a map reference under arbitrary
// insert/delete/get interleavings.
func TestQuickTreeMatchesMap(t *testing.T) {
	type op struct {
		Key uint64
		Del bool
	}
	f := func(ops []op) bool {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 128, MemBlocks: 32, Disks: 1})
		pool := pdm.PoolFor(vol)
		tr, err := New(vol, pool, nil)
		if err != nil {
			return false
		}
		ref := map[uint64]uint64{}
		for i, o := range ops {
			k := o.Key % 64
			if o.Del {
				removed, err := tr.Delete(k)
				if err != nil {
					return false
				}
				_, had := ref[k]
				if removed != had {
					return false
				}
				delete(ref, k)
			} else {
				v := uint64(i)
				if _, err := tr.Insert(k, v); err != nil {
					return false
				}
				ref[k] = v
			}
		}
		if tr.Len() != int64(len(ref)) {
			return false
		}
		for k, v := range ref {
			got, ok, err := tr.Get(k)
			if err != nil || !ok || got != v {
				return false
			}
		}
		// Scan order must be sorted and complete.
		var prev uint64
		cnt := 0
		err = tr.Range(0, ^uint64(0), func(k, v uint64) error {
			if cnt > 0 && k <= prev {
				return ErrUnsortedInput
			}
			prev = k
			cnt++
			return nil
		})
		return err == nil && cnt == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
