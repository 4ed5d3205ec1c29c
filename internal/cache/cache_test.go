package cache

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"em/internal/pdm"
)

func newEnv(t *testing.T) (*pdm.Volume, *pdm.Pool) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 32, MemBlocks: 16, Disks: 1})
	return vol, pdm.PoolFor(vol)
}

func TestCacheHitMiss(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(4)
	buf := make([]byte, 32)
	for i := int64(0); i < 4; i++ {
		buf[0] = byte(i)
		if err := vol.WriteBlock(addr+i, buf); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(vol, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Buf[0] != 0 {
		t.Fatal("wrong block content")
	}
	c.Unpin(p)
	p2, err := c.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Unpin(p2)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheEvictionWritesBackDirty(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(3)
	zero := make([]byte, 32)
	for i := int64(0); i < 3; i++ {
		if err := vol.WriteBlock(addr+i, zero); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(vol, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p.Buf[0] = 0xAB
	p.MarkDirty()
	c.Unpin(p)
	// Fill the cache past capacity so addr gets evicted.
	for i := int64(1); i < 3; i++ {
		q, err := c.Get(addr + i)
		if err != nil {
			t.Fatal(err)
		}
		c.Unpin(q)
	}
	got := make([]byte, 32)
	if err := vol.ReadBlock(addr, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatal("dirty page not written back on eviction")
	}
	if c.Stats().Evictions == 0 || c.Stats().WriteBack == 0 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheAllPinned(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(3)
	zero := make([]byte, 32)
	for i := int64(0); i < 3; i++ {
		vol.WriteBlock(addr+i, zero)
	}
	c, _ := New(vol, pool, 2)
	p0, err := c.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := c.Get(addr + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(addr + 2); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("expected ErrAllPinned, got %v", err)
	}
	c.Unpin(p0)
	c.Unpin(p1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheGetNewStartsZeroedDirty(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(1)
	c, _ := New(vol, pool, 2)
	p, err := c.GetNew(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range p.Buf {
		if b != 0 {
			t.Fatal("GetNew page not zeroed")
		}
	}
	p.Buf[5] = 7
	c.Unpin(p)
	if err := c.Close(); err != nil { // flush
		t.Fatal(err)
	}
	got := make([]byte, 32)
	vol.ReadBlock(addr, got)
	if got[5] != 7 {
		t.Fatal("GetNew page not flushed")
	}
}

func TestCacheCloseWithPinnedFails(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(1)
	vol.WriteBlock(addr, make([]byte, 32))
	c, _ := New(vol, pool, 2)
	p, _ := c.Get(addr)
	if err := c.Close(); err == nil {
		t.Fatal("close with pinned page should fail")
	}
	c.Unpin(p)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
}

func TestCacheUnpinUnderflowPanics(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(1)
	vol.WriteBlock(addr, make([]byte, 32))
	c, _ := New(vol, pool, 2)
	p, _ := c.Get(addr)
	c.Unpin(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Unpin(p)
}

func TestCacheDrop(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(1)
	vol.WriteBlock(addr, make([]byte, 32))
	c, _ := New(vol, pool, 2)
	p, _ := c.Get(addr)
	p.Buf[0] = 1
	p.MarkDirty()
	c.Unpin(p)
	c.Drop(addr)
	if c.Len() != 0 {
		t.Fatal("drop did not remove page")
	}
	got := make([]byte, 32)
	vol.ReadBlock(addr, got)
	if got[0] != 0 {
		t.Fatal("drop must not write back")
	}
	c.Close()
}

func TestPolicyScanFaultsEqualDistinct(t *testing.T) {
	refs := ScanRefs(50)
	for _, f := range []func([]int64, int) int{FaultsLRU, FaultsFIFO, FaultsCLOCK, FaultsMIN} {
		if got := f(refs, 8); got != 50 {
			t.Fatalf("cold scan should fault once per block, got %d", got)
		}
	}
}

func TestPolicyLoopLRUWorstCase(t *testing.T) {
	// A loop over n blocks with fewer than n frames makes LRU fault on every
	// reference; MIN does much better.
	refs := LoopRefs(10, 5)
	lru := FaultsLRU(refs, 9)
	min := FaultsMIN(refs, 9)
	if lru != len(refs) {
		t.Fatalf("LRU on loop should fault always, got %d/%d", lru, len(refs))
	}
	if min >= lru {
		t.Fatalf("MIN (%d) should beat LRU (%d) on loops", min, lru)
	}
}

func TestPolicyFitsInMemoryNoRefaults(t *testing.T) {
	refs := LoopRefs(8, 10)
	for _, f := range []func([]int64, int) int{FaultsLRU, FaultsFIFO, FaultsCLOCK, FaultsMIN} {
		if got := f(refs, 8); got != 8 {
			t.Fatalf("working set fits: want 8 compulsory faults, got %d", got)
		}
	}
}

func TestPolicyZeroFrames(t *testing.T) {
	refs := ScanRefs(5)
	for _, f := range []func([]int64, int) int{FaultsLRU, FaultsFIFO, FaultsCLOCK, FaultsMIN} {
		if got := f(refs, 0); got != 5 {
			t.Fatalf("zero frames: got %d", got)
		}
	}
}

// Property: MIN is optimal — no online policy beats it on any reference
// string and any frame count.
func TestQuickMINIsLowerBound(t *testing.T) {
	f := func(raw []uint8, framesRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		refs := make([]int64, len(raw))
		for i, r := range raw {
			refs[i] = int64(r % 16)
		}
		frames := int(framesRaw%8) + 1
		min := FaultsMIN(refs, frames)
		return FaultsLRU(refs, frames) >= min &&
			FaultsFIFO(refs, frames) >= min &&
			FaultsCLOCK(refs, frames) >= min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: more frames never increase MIN or LRU faults (stack property for
// LRU; optimality argument for MIN).
func TestQuickMoreFramesNeverHurt(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 150 {
			raw = raw[:150]
		}
		refs := make([]int64, len(raw))
		for i, r := range raw {
			refs[i] = int64(r % 12)
		}
		for k := 1; k < 8; k++ {
			if FaultsLRU(refs, k+1) > FaultsLRU(refs, k) {
				return false
			}
			if FaultsMIN(refs, k+1) > FaultsMIN(refs, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetRefsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	refs := WorkingSetRefs(1000, 10, 7, func() int64 { return rng.Int63() })
	if len(refs) != 1000 {
		t.Fatalf("len = %d", len(refs))
	}
	hot := 0
	for _, r := range refs {
		if r < 10 {
			hot++
		}
	}
	if hot < 500 || hot > 900 {
		t.Fatalf("expected ~70%% hot references, got %d/1000", hot)
	}
}

func TestGetBatchAsyncHitsMissesAndDuplicates(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(4)
	buf := make([]byte, 32)
	for i := int64(0); i < 4; i++ {
		buf[0] = byte(10 + i)
		if err := vol.WriteBlock(addr+i, buf); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(vol, pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-cache one block so the batch mixes a hit with misses.
	p, err := c.Get(addr + 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Unpin(p)
	vol.Stats().Reset()

	pages, deadline, err := c.GetBatchAsync([]int64{addr, addr + 1, addr + 3, addr}, false)
	if err != nil {
		t.Fatal(err)
	}
	vol.Wait(deadline)
	for i, want := range []byte{10, 11, 13, 10} {
		if pages[i].Buf[0] != want {
			t.Fatalf("page %d holds %d, want %d", i, pages[i].Buf[0], want)
		}
	}
	if pages[0] != pages[3] {
		t.Fatal("duplicate address did not share one page")
	}
	// One read for each distinct miss; the hit and the duplicate are free.
	if reads := vol.Stats().Snapshot().Reads; reads != 2 {
		t.Fatalf("batch cost %d reads, want 2", reads)
	}
	for _, p := range pages {
		c.Unpin(p)
	}
	// Read-only admission: closing writes nothing back.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if writes := vol.Stats().Snapshot().Writes; writes != 0 {
		t.Fatalf("read-only batch wrote %d blocks back", writes)
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

func TestGetBatchAsyncRespectsPins(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(6)
	zero := make([]byte, 32)
	for i := int64(0); i < 6; i++ {
		if err := vol.WriteBlock(addr+i, zero); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(vol, pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A pinned (dirty) writer page must survive a batch that fills the rest
	// of the cache...
	w, err := c.Get(addr + 5)
	if err != nil {
		t.Fatal(err)
	}
	w.MarkDirty()
	pages, deadline, err := c.GetBatchAsync([]int64{addr, addr + 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	vol.Wait(deadline)
	for _, p := range pages {
		c.Unpin(p)
	}
	// ...and a batch that cannot make room without evicting it must fail
	// cleanly rather than touch it.
	if _, _, err := c.GetBatchAsync([]int64{addr + 2, addr + 3, addr + 4}, false); err == nil {
		t.Fatal("over-capacity batch against a pinned page succeeded")
	}
	c.Unpin(w)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

func TestPeekPinsResidentOnly(t *testing.T) {
	vol, pool := newEnv(t)
	addr := vol.Alloc(2)
	zero := make([]byte, 32)
	for i := int64(0); i < 2; i++ {
		if err := vol.WriteBlock(addr+i, zero); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(vol, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	if p := c.Peek(addr, false); p != nil {
		t.Fatal("peek of absent block returned a page")
	}
	if reads := vol.Stats().Snapshot().Reads; reads != 0 {
		t.Fatalf("peek cost %d reads", reads)
	}
	p, err := c.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Unpin(p)
	q := c.Peek(addr, false)
	if q == nil {
		t.Fatal("peek of resident block returned nil")
	}
	c.Unpin(q)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
