package cache

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"em/internal/pdm"
)

// retainEnv is a volume of n blocks under a cache of capacity pages. Block i
// holds byte i, except under a fault plan, whose transfer budget the writes
// would spend: there the blocks stay unwritten and read as zeros.
func retainEnv(t testing.TB, n, capacity int, fault *pdm.FaultPlan) (*Cache, *pdm.Pool, int64) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 32, MemBlocks: max(16, capacity), Disks: 2, Fault: fault})
	pool := pdm.PoolFor(vol)
	base := vol.Alloc(n)
	if fault == nil {
		buf := make([]byte, 32)
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			if err := vol.WriteBlock(base+int64(i), buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	c, err := New(vol, pool, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c, pool, base
}

// touch pins and unpins addr in the given class.
func touch(t testing.TB, c *Cache, addr int64, retain bool) {
	t.Helper()
	p, err := c.Pin(addr, retain)
	if err != nil {
		t.Fatal(err)
	}
	c.Unpin(p)
}

func resident(c *Cache, addr int64) bool { _, ok := c.pages[addr]; return ok }

func TestRetainedPassedOverWhileOrdinaryExists(t *testing.T) {
	c, pool, base := retainEnv(t, 8, 3, nil)
	free := pool.Free()
	touch(t, c, base, true) // the oldest page, and the only retained one
	touch(t, c, base+1, false)
	touch(t, c, base+2, false)
	// Plain LRU would evict base; the two-class rule takes the ordinary LRU.
	touch(t, c, base+3, false)
	if !resident(c, base) || resident(c, base+1) {
		t.Fatal("retained page evicted while an ordinary unpinned page existed")
	}
	// With every ordinary page pinned the retained one is all that is left.
	p2, _ := c.Get(base + 2)
	p3, _ := c.Get(base + 3)
	touch(t, c, base+4, false)
	if resident(c, base) {
		t.Fatal("retained page not taken when no ordinary unpinned page existed")
	}
	c.Unpin(p2)
	c.Unpin(p3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.Free() != free {
		t.Fatalf("pool free %d after close, want %d", pool.Free(), free)
	}
}

func TestClassFollowsLatestPin(t *testing.T) {
	c, _, base := retainEnv(t, 8, 2, nil)
	touch(t, c, base, false)
	touch(t, c, base+1, false)
	// Promotion on a hit, through each pinning entry point.
	if p := c.Peek(base, true); p == nil {
		t.Fatal("resident page not peeked")
	} else {
		c.Unpin(p)
	}
	touch(t, c, base+2, false) // evicts base+1 although base is older
	if !resident(c, base) || resident(c, base+1) {
		t.Fatal("page pinned as retained on a hit was not promoted")
	}
	pages, _, err := c.GetBatchAsync([]int64{base + 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Unpin(pages[0])
	// Both retained and unpinned: the fallback is LRU among the retained.
	touch(t, c, base+3, false)
	if resident(c, base) || !resident(c, base+2) {
		t.Fatal("all-retained cache did not evict its least recently used page")
	}
	// An ordinary pin demotes: base+2 is now the first to go again.
	touch(t, c, base+2, false)
	touch(t, c, base+3, true)
	touch(t, c, base+4, false)
	if resident(c, base+2) || !resident(c, base+3) {
		t.Fatal("page pinned as ordinary on a hit kept its retained class")
	}
	// Drop forgets the class along with the page.
	c.Drop(base + 3)
	touch(t, c, base+3, false)
	touch(t, c, base+5, false)
	if resident(c, base+4) || !resident(c, base+3) {
		t.Fatal("class survived Drop")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProtectionIsEarned: a page hit while resident outlives every page
// touched once, a retained page outlives both, and Retained() counts only
// the retained one.
func TestProtectionIsEarned(t *testing.T) {
	const capacity = 6
	c, _, base := retainEnv(t, 32, capacity, nil)
	r, a, b := base, base+1, base+2
	touch(t, c, r, true)
	touch(t, c, a, false)
	touch(t, c, a, false) // a hit: a is hot from here on
	touch(t, c, b, false) // never hit
	if c.Retained() != 1 || classCount(c, hot) != 1 {
		t.Fatalf("Retained() %d with %d hot pages, want 1 and 1", c.Retained(), classCount(c, hot))
	}
	// A sweep of capacity-many one-shot misses washes b out, not a.
	next := base + 3
	for i := 0; i < capacity; i++ {
		touch(t, c, next, false)
		next++
	}
	if !resident(c, r) || !resident(c, a) || resident(c, b) {
		t.Fatalf("after the sweep: retained %v, hot %v, one-shot %v resident; want true, true, false",
			resident(c, r), resident(c, a), resident(c, b))
	}
	// Hold the capacity-2 ordinary frames pinned: the next miss has only a
	// and r to choose from, and takes the hot page although r is older.
	var held []*Page
	for i := 0; i < capacity-2; i++ {
		p, err := c.Pin(next, false)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
		next++
	}
	touch(t, c, next, false)
	if resident(c, a) || !resident(c, r) {
		t.Fatal("a hot page outlived a retained one")
	}
	// A hot page pinned as retained is counted as retained, and an ordinary
	// pin hands it back to the hot chain, uncounted.
	touch(t, c, next, true)
	if c.Retained() != 2 || classCount(c, hot) != 0 {
		t.Fatalf("Retained() %d with %d hot pages after a retained pin, want 2 and 0", c.Retained(), classCount(c, hot))
	}
	touch(t, c, next, false)
	if c.Retained() != 1 || classCount(c, hot) != 1 {
		t.Fatalf("Retained() %d with %d hot pages after an ordinary pin, want 1 and 1", c.Retained(), classCount(c, hot))
	}
	for _, p := range held {
		c.Unpin(p)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReusedSlotStartsOnProbation: a table slot freed while its page was
// hot — by eviction, Drop, Discard or a failed batch — hands the next page
// it takes a clean start. Free slots are reused last in, first out, so the
// next admission lands in the freed slot.
func TestReusedSlotStartsOnProbation(t *testing.T) {
	for _, how := range []string{"evict", "Drop", "Discard", "failed batch"} {
		t.Run(how, func(t *testing.T) {
			var fault *pdm.FaultPlan
			if how == "failed batch" {
				fault = &pdm.FaultPlan{FailAfter: 1} // base's read only
			}
			c, _, base := retainEnv(t, 8, 2, fault)
			touch(t, c, base, false)
			touch(t, c, base, false)
			slot := c.pages[base]
			switch how {
			case "evict":
				touch(t, c, base+1, false)
				touch(t, c, base+1, false) // both hot: base is the LRU
				touch(t, c, base+2, false)
			case "Drop":
				c.Drop(base)
				touch(t, c, base+2, false)
			case "Discard":
				if err := c.Discard(); err != nil {
					t.Fatal(err)
				}
				touch(t, c, base+2, false)
			case "failed batch":
				// The duplicate is a hit on the page admitted for the miss,
				// so the page the failure discards is hot.
				if _, _, err := c.GetBatchAsync([]int64{base + 1, base + 1}, false); !errors.Is(err, pdm.ErrFaulted) {
					t.Fatalf("batch on a dead disk returned %v", err)
				}
				slot = c.free
				p, err := c.GetNew(base + 2)
				if err != nil {
					t.Fatal(err)
				}
				c.Unpin(p)
			}
			p := c.pages[base+2]
			if p != slot {
				t.Fatal("the next admission landed in another slot than the freed one")
			}
			if p.hot || classWalk(t, c)[hot] != classCount(c, hot) {
				t.Fatal("a reused slot inherited hot")
			}
			if how == "failed batch" {
				c.Drop(base + 2) // dirty on a dead disk
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDirtyRetainedWrittenBackOnce(t *testing.T) {
	c, _, base := retainEnv(t, 8, 2, nil)
	p, err := c.Pin(base, true)
	if err != nil {
		t.Fatal(err)
	}
	p.Buf[1] = 0xCD
	p.MarkDirty()
	c.Unpin(p)
	for i := int64(1); i <= 4; i++ {
		touch(t, c, base+i, false) // ordinary traffic washes past it
	}
	if w := c.Stats().WriteBack; w != 0 {
		t.Fatalf("%d write-backs while the dirty retained page was resident", w)
	}
	touch(t, c, base+5, true)
	touch(t, c, base+6, true) // only retained pages left: base goes, dirty
	if resident(c, base) {
		t.Fatal("retained page still resident")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if w := c.Stats().WriteBack; w != 1 {
		t.Fatalf("dirty retained page written back %d times, want 1", w)
	}
	got := make([]byte, 32)
	if err := c.vol.ReadBlock(base, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0xCD {
		t.Fatalf("block image after write-back = % x", got[:2])
	}
}

func TestGetBatchAsyncOverRetainedFrames(t *testing.T) {
	c, pool, base := retainEnv(t, 12, 4, nil)
	free := pool.Free()
	for i := int64(0); i < 4; i++ {
		touch(t, c, base+i, true)
	}
	// Every frame is retained and unpinned: a batch still finds room.
	pages, _, err := c.GetBatchAsync([]int64{base + 4, base + 5, base + 6}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		if p.Buf[0] != byte(4+i) {
			t.Fatalf("page %d holds block %d", i, p.Buf[0])
		}
		c.Unpin(p)
	}
	if c.Len() != 4 || pool.Free() != free-4 {
		t.Fatalf("len %d, pool free %d (of %d)", c.Len(), pool.Free(), free)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.Free() != free {
		t.Fatalf("pool free %d after close, want %d", pool.Free(), free)
	}
}

func TestFailedBatchOverRetainedFramesRestoresPool(t *testing.T) {
	// The disk dies after the four transfers that fill the cache.
	c, pool, base := retainEnv(t, 12, 4, &pdm.FaultPlan{FailAfter: 4})
	free := pool.Free()
	for i := int64(0); i < 4; i++ {
		touch(t, c, base+i, true)
	}
	if _, _, err := c.GetBatchAsync([]int64{base + 4, base + 3, base + 5}, true); err == nil {
		t.Fatal("batch succeeded on a dead disk")
	}
	// The two unread pages are gone and their frames returned; base+3, a
	// hit, stays resident and unpinned.
	if resident(c, base+4) || resident(c, base+5) || !resident(c, base+3) {
		t.Fatal("failed batch left the wrong pages resident")
	}
	if pool.Free()+c.Len() != free {
		t.Fatalf("pool free %d + resident %d != %d", pool.Free(), c.Len(), free)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.Free() != free {
		t.Fatalf("pool free %d after close, want %d", pool.Free(), free)
	}
}

// TestFailedBatchUnwindsAtDispatch: a batch whose miss read fails is
// unwound before GetBatchAsync returns, not at some later wait. The call
// itself reports the fault, no page of the batch keeps its pin, and every
// failed miss is gone from the cache, so nothing can hit its unread frame.
func TestFailedBatchUnwindsAtDispatch(t *testing.T) {
	// The disk dies after the two transfers that make base and base+1
	// resident.
	c, pool, base := retainEnv(t, 8, 6, &pdm.FaultPlan{FailAfter: 2})
	free := pool.Free()
	touch(t, c, base, false)
	touch(t, c, base+1, true)
	batch := []int64{base + 2, base, base + 3, base + 1, base + 2}
	if _, _, err := c.GetBatchAsync(batch, false); !errors.Is(err, pdm.ErrFaulted) {
		t.Fatalf("GetBatchAsync on a dead disk returned %v, want ErrFaulted", err)
	}
	for _, a := range batch {
		if p := c.pages[a]; p != nil && p.pins != 0 {
			t.Fatalf("block %d still pinned %d times after the failed batch", a-base, p.pins)
		}
	}
	for _, a := range []int64{base + 2, base + 3} {
		if p := c.Peek(a, false); p != nil {
			c.Unpin(p)
			t.Fatalf("failed miss %d still resident", a-base)
		}
	}
	if !resident(c, base) || !resident(c, base+1) || pool.Free()+c.Len() != free {
		t.Fatalf("hits resident %v %v, pool free %d + resident %d, want %d",
			resident(c, base), resident(c, base+1), pool.Free(), c.Len(), free)
	}
}

// Page classes, in eviction order, as classWalk counts them.
const (
	ordinary = iota
	hot
	retained
)

func classOf(p *Page) int {
	switch {
	case p.retain:
		return retained
	case p.hot:
		return hot
	}
	return ordinary
}

// classWalk walks every recency chain link by link and counts the pages of
// each class it finds. It fails if a chain mixes classes or two chains hold
// the same class, so each count is the length of one chain, found by the
// class of its pages rather than by its index.
func classWalk(t *testing.T, c *Cache) [3]int {
	t.Helper()
	var n [3]int
	var seen [3]bool
	for i := range c.chains {
		class := -1
		for s, p := &c.chains[i], c.chains[i].next; p != s; p = p.next {
			if k := classOf(p); class < 0 {
				class = k
			} else if k != class {
				t.Fatalf("chain %d links a page of class %d beside class %d", i, k, class)
			}
			n[class]++
		}
		if class >= 0 {
			if seen[class] {
				t.Fatalf("two chains hold class %d", class)
			}
			seen[class] = true
		}
	}
	return n
}

// classCount counts the resident pages of class k by the table, without
// following any link.
func classCount(c *Cache, k int) int {
	n := 0
	for i := range c.table {
		if p := &c.table[i]; p.frame != nil && classOf(p) == k {
			n++
		}
	}
	return n
}

// TestRetainedCountsTheRetainedChain drives every operation that links or
// unlinks a page — both classes of Pin, GetNew, Peek, batches that succeed,
// batches refused for lack of evictable pages, batches whose read fails on a
// dead disk, Drop, eviction, Close — through caches of 3 to 64 pages, and
// after each one Retained() is the length of the retained chain and the hot
// chain links exactly the resident hot pages.
func TestRetainedCountsTheRetainedChain(t *testing.T) {
	const blocks = 96
	for capacity := 3; capacity <= 64; capacity++ {
		// Every fourth cache loses its disk partway through.
		var fault *pdm.FaultPlan
		if capacity%4 == 0 {
			fault = &pdm.FaultPlan{FailAfter: int64(20 * capacity)}
		}
		c, pool, base := retainEnv(t, blocks, capacity, fault)
		free := pool.Free()
		rng := rand.New(rand.NewSource(int64(capacity)))
		var held []*Page
		check := func(op string) {
			t.Helper()
			walk := classWalk(t, c)
			if got, want := c.Retained(), walk[retained]; got != want {
				t.Fatalf("capacity %d after %s: Retained() %d, chain holds %d", capacity, op, got, want)
			}
			if got, want := walk[hot], classCount(c, hot); got != want {
				t.Fatalf("capacity %d after %s: hot chain holds %d, %d hot pages resident", capacity, op, got, want)
			}
		}
		for i := 0; i < 2000; i++ {
			addr, retain := base+int64(rng.Intn(blocks)), rng.Intn(2) == 0
			switch rng.Intn(8) { // 7: only unpin
			case 0, 1, 2:
				if p, err := c.Pin(addr, retain); err == nil {
					held = append(held, p)
				}
				check("Pin")
			case 3:
				if p, err := c.GetNew(addr); err == nil {
					held = append(held, p)
				}
				check("GetNew")
			case 4:
				if p := c.Peek(addr, retain); p != nil {
					held = append(held, p)
				}
				check("Peek")
			case 5:
				// Up to the whole capacity: with pages held elsewhere the
				// dispatch is refused; on a dead disk its read fails.
				addrs := make([]int64, 1+rng.Intn(capacity))
				for j := range addrs {
					addrs[j] = base + int64(rng.Intn(blocks))
				}
				pages, _, err := c.GetBatchAsync(addrs, retain)
				if err == nil {
					held = append(held, pages...)
				}
				check("GetBatchAsync")
			case 6:
				c.Drop(addr)
				check("Drop")
			}
			// Keep most of the cache evictable.
			for len(held) > capacity/2 || (len(held) > 0 && rng.Intn(3) == 0) {
				j := rng.Intn(len(held))
				c.Unpin(held[j])
				held[j] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		}
		for _, p := range held {
			c.Unpin(p)
		}
		// A dead disk cannot take the dirty pages back: drop them instead.
		if fault != nil {
			for a := int64(0); a < blocks; a++ {
				c.Drop(base + a)
			}
			check("Drop of everything")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		check("Close")
		if c.Retained() != 0 || pool.Free() != free {
			t.Fatalf("capacity %d closed: %d retained, pool free %d of %d", capacity, c.Retained(), pool.Free(), free)
		}
	}
}

// flushOrder dirties k pages through a fixed history of admissions, drops
// and hits, then reports the order Flush writes them in: run j lets j writes
// through before the disk dies, and the page that is clean after run j but
// was dirty after run j-1 is the j-th written.
func flushOrder(t *testing.T, k int) []int64 {
	var order []int64
	clean := map[int64]bool{}
	for j := 1; j <= k; j++ {
		c, _, base := retainEnv(t, 2*k, k, &pdm.FaultPlan{FailAfter: int64(j)})
		fresh := func(a int) {
			p, err := c.GetNew(base + int64(a))
			if err != nil {
				t.Fatal(err)
			}
			c.Unpin(p)
		}
		for i := 0; i < k; i++ {
			fresh(i * 5 % k)
		}
		for _, a := range []int{1, 4, 6} {
			c.Drop(base + int64(a)) // holes, refilled out of address order
		}
		for _, a := range []int{k + 2, k, k + 1} {
			fresh(a)
		}
		for _, a := range []int{0, 3, 7} {
			touch(t, c, base+int64(a), true) // hits: no I/O, recency and class change
		}
		if err := c.Flush(); (err == nil) != (j == k) {
			t.Fatalf("flush of %d dirty pages with %d writes allowed: %v", k, j, err)
		}
		for i := range c.table {
			if p := &c.table[i]; p.frame != nil && !p.dirty && !clean[p.addr-base] {
				clean[p.addr-base] = true
				order = append(order, p.addr-base)
			}
		}
	}
	return order
}

func TestFlushOrderIsDeterministic(t *testing.T) {
	const k = 8
	a, b := flushOrder(t, k), flushOrder(t, k)
	if len(a) != k {
		t.Fatalf("%d of %d pages flushed: %v", len(a), k, a)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("equal states flushed in different orders:\n%v\n%v", a, b)
	}
}

func TestGetAllocatesNothing(t *testing.T) {
	c, _, base := retainEnv(t, 16, 4, nil)
	touch(t, c, base, true)
	if n := testing.AllocsPerRun(100, func() { touch(t, c, base, true) }); n != 0 {
		t.Errorf("Get+Unpin on a hit allocates %v times", n)
	}
	next := int64(0)
	miss := func() {
		next++
		touch(t, c, base+next%16, next%3 == 0)
	}
	for i := 0; i < 16; i++ {
		miss() // fill the cache so every further miss evicts
	}
	misses := c.Stats().Misses
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Errorf("Get+Unpin on an evicting miss allocates %v times", n)
	}
	if got := c.Stats().Misses - misses; got < 100 {
		t.Fatalf("only %d of the timed gets missed", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCacheGet times Get+Unpin on a hit, on a miss that evicts an
// ordinary page, and on a miss into a cache full of retained pages (the
// eviction falls through the empty ordinary chain). One iteration is a fixed
// batch of gets, so make bench's -benchtime 3x still measures something;
// the per-get cost is the ns/get column, and allocs/op counts a whole batch.
func BenchmarkCacheGet(b *testing.B) {
	const capacity, blocks, batch = 48, 4096, 1 << 16
	for _, tc := range []struct {
		name   string
		span   int64
		retain bool
	}{
		{"hit", capacity / 2, false},
		{"miss", blocks, false},
		{"miss-retained-full", blocks, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			vol := pdm.MustVolume(pdm.Config{BlockBytes: 4096, MemBlocks: 64, Disks: 1})
			base := vol.Alloc(blocks)
			c, err := New(vol, pdm.PoolFor(vol), capacity)
			if err != nil {
				b.Fatal(err)
			}
			get := func(i int) { // touch without t.Helper, which costs ten hits
				p, err := c.Pin(base+int64(i)%tc.span, tc.retain)
				if err != nil {
					b.Fatal(err)
				}
				c.Unpin(p)
			}
			for i := 0; i < capacity; i++ {
				get(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N*batch; i++ {
				get(capacity + i)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/get")
			if s := c.Stats(); tc.span > capacity && s.Hits != 0 {
				b.Fatalf("miss benchmark hit %d times", s.Hits)
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
