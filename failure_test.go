package em_test

// Failure-injection and misuse tests: every component must fail loudly and
// cleanly — returning errors, not corrupting state or silently borrowing
// memory — when its contract is violated. The memory-budget cases are the
// library's core promise: the pool panics on over-subscription so model
// violations cannot pass silently.

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"em"
)

func TestConfigValidation(t *testing.T) {
	bad := []em.Config{
		{BlockBytes: 0, MemBlocks: 4, Disks: 1},
		{BlockBytes: -5, MemBlocks: 4, Disks: 1},
		{BlockBytes: 512, MemBlocks: 1, Disks: 1}, // fewer than 2 frames
		{BlockBytes: 512, MemBlocks: 4, Disks: 0},
	}
	for _, cfg := range bad {
		if _, err := em.NewVolume(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustVolume did not panic on a bad config")
		}
	}()
	em.MustVolume(em.Config{BlockBytes: 0, MemBlocks: 0, Disks: 0})
}

func TestPoolBudgetEnforced(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 256, MemBlocks: 3, Disks: 1})
	pool := em.PoolFor(vol)
	frames := make([]*em.Frame, 0, 3)
	for i := 0; i < 3; i++ {
		f, err := pool.Alloc()
		if err != nil {
			t.Fatalf("alloc %d within budget failed: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := pool.Alloc(); err == nil {
		t.Fatal("allocation beyond M/B succeeded")
	}
	for _, f := range frames {
		f.Release()
	}
	if pool.InUse() != 0 || pool.Peak() != 3 {
		t.Fatalf("accounting wrong: inUse=%d peak=%d", pool.InUse(), pool.Peak())
	}
	// Double release must panic: it means buffer accounting is corrupt.
	defer func() {
		if recover() == nil {
			t.Error("double frame release did not panic")
		}
	}()
	frames[0].Release()
}

func TestSortFailsCleanlyWithoutMemory(t *testing.T) {
	// A merge sort needs at least a few frames; with a starved pool it must
	// return an error — not panic, not fall back to hidden RAM.
	vol := em.MustVolume(em.Config{BlockBytes: 256, MemBlocks: 16, Disks: 1})
	pool := em.PoolFor(vol)
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, randomRecords(rand.New(rand.NewSource(1)), 2000))
	if err != nil {
		t.Fatal(err)
	}
	starved := em.NewPool(256, 2)
	if _, err := em.SortRecords(f, starved, nil); err == nil {
		t.Fatal("sort with a 2-frame pool should fail")
	}
	if starved.InUse() != 0 {
		t.Fatalf("failed sort leaked %d frames", starved.InUse())
	}
}

func TestBTreeContractViolations(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 512, MemBlocks: 16, Disks: 1})
	pool := em.PoolFor(vol)
	// The positional constructor takes its frame count literally: zero is
	// not the options form's default.
	for _, frames := range []int{2, 0} {
		if _, err := em.NewBTree(vol, pool, frames); err == nil {
			t.Errorf("B-tree with %d cache frames accepted (needs 3 for splits)", frames)
		}
	}
	// Bulk load rejects unsorted input.
	unsorted, err := em.FromSlice(vol, pool, em.RecordCodec{}, []em.Record{
		{Key: 5, Val: 0}, {Key: 3, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.BulkLoadBTreeWith(vol, pool, 4, unsorted, nil); err == nil {
		t.Error("bulk load accepted unsorted input")
	}
	// Bulk load rejects duplicate keys (not strictly increasing).
	dup, err := em.FromSlice(vol, pool, em.RecordCodec{}, []em.Record{
		{Key: 3, Val: 0}, {Key: 3, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.BulkLoadBTreeWith(vol, pool, 4, dup, nil); err == nil {
		t.Error("bulk load accepted duplicate keys")
	}
}

func TestWriterReaderMisuse(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 256, MemBlocks: 8, Disks: 1})
	pool := em.PoolFor(vol)
	f := em.NewFile[em.Record](vol, em.RecordCodec{})
	w, err := em.NewWriter(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(em.Record{Key: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close should be a no-op, got %v", err)
	}
	if err := w.Append(em.Record{Key: 2}); err == nil {
		t.Error("append after close accepted")
	}
	r, err := em.NewReader(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, _, err := r.Next(); err == nil {
		t.Error("read after close accepted")
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
}

func TestGraphRejectsBadInput(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 256, MemBlocks: 8, Disks: 1})
	pool := em.PoolFor(vol)
	arcs, err := em.FromSlice(vol, pool, em.PairCodec{}, []em.Pair{{A: 0, B: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.BuildGraph(vol, pool, 3, arcs); err == nil {
		t.Error("graph accepted arc to vertex 7 with V=3")
	}
	ok, err := em.FromSlice(vol, pool, em.PairCodec{}, []em.Pair{{A: 0, B: 1}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := em.BuildGraph(vol, pool, 2, ok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.BFS(g, pool, 9); err == nil {
		t.Error("BFS accepted out-of-range source")
	}
}

func TestListRankRejectsMalformedLists(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 256, MemBlocks: 8, Disks: 1})
	pool := em.PoolFor(vol)

	// A cycle: 0 -> 1 -> 0, never reaching Tail.
	cyc, err := em.FromSlice(vol, pool, em.PairCodec{}, []em.Pair{
		{A: 0, B: 1}, {A: 1, B: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.RankListNaive(cyc, pool, 0); err == nil {
		t.Error("naive rank accepted a cyclic list")
	}

	// Successor out of range.
	oob, err := em.FromSlice(vol, pool, em.PairCodec{}, []em.Pair{
		{A: 0, B: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em.RankListNaive(oob, pool, 0); err == nil {
		t.Error("naive rank accepted an out-of-range successor")
	}
}

func TestPermuteRejectsInvalidPermutations(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 256, MemBlocks: 8, Disks: 1})
	pool := em.PoolFor(vol)
	f, err := em.FromSlice(vol, pool, em.U64Codec{}, []uint64{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]int64{
		{0, 1, 2},     // wrong length
		{0, 1, 2, 9},  // out of range
		{0, 1, 1, 3},  // duplicate target
		{-1, 1, 2, 3}, // negative
	}
	for _, perm := range cases {
		if _, err := em.PermuteNaive(f, pool, perm); err == nil {
			t.Errorf("naive permute accepted %v", perm)
		}
		if _, err := em.PermuteBySorting(f, pool, perm, nil); err == nil {
			t.Errorf("sort permute accepted %v", perm)
		}
	}
	if _, err := em.BitReversalPerm(12); err == nil {
		t.Error("bit reversal of non-power-of-two accepted")
	}
}

func TestVolumeAddressAndBufferChecks(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 128, MemBlocks: 4, Disks: 2})
	buf := make([]byte, 128)
	if err := vol.ReadBlock(0, buf); err == nil {
		t.Error("read of unallocated address accepted")
	}
	addr := vol.Alloc(1)
	if err := vol.WriteBlock(addr, make([]byte, 64)); err == nil {
		t.Error("write with short buffer accepted")
	}
	if err := vol.WriteBlock(addr, buf); err != nil {
		t.Fatal(err)
	}
	if err := vol.ReadBlock(addr, make([]byte, 256)); err == nil {
		t.Error("read with oversized buffer accepted")
	}
	if err := vol.ReadBlock(-1, buf); err == nil {
		t.Error("negative address accepted")
	}
}

func TestSegmentValidation(t *testing.T) {
	good := em.HSeg(1, 3, 9, 5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := em.Segment{ID: 2, Vertical: true, Y: 9, Y2: 1}
	err := bad.Validate()
	if err == nil {
		t.Fatal("inverted vertical accepted")
	}
	if !strings.Contains(err.Error(), "malformed") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestBufferTreeSealedRejectsUpdates(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 512, MemBlocks: 16, Disks: 1})
	pool := em.PoolFor(vol)
	tr, err := em.NewBufferTree(vol, pool, em.BufferTreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(2, 2); err == nil {
		t.Error("insert after seal accepted")
	}
	if _, err := tr.Seal(); err == nil {
		t.Error("double seal accepted")
	}
}

// errorsIsChain double-checks that sentinel errors survive wrapping through
// the public API (callers match with errors.Is).
func TestSentinelErrorsAreMatchable(t *testing.T) {
	vol := em.MustVolume(em.Config{BlockBytes: 256, MemBlocks: 3, Disks: 1})
	pool := em.PoolFor(vol)
	a, _ := pool.Alloc()
	b, _ := pool.Alloc()
	c, _ := pool.Alloc()
	_, err := pool.Alloc()
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	var sentinel = err
	if !errors.Is(sentinel, sentinel) {
		t.Fatal("error identity broken")
	}
	a.Release()
	b.Release()
	c.Release()
}
