// Package cache provides a pinning, write-back block cache over a pdm.Volume
// together with offline paging-policy simulators (LRU, FIFO, CLOCK, and
// Belady's MIN) for the survey's caching and prefetching discussion.
//
// The live Cache is the buffer manager used by the online index structures
// (B-tree, extendible hashing): it keeps hot blocks pinned in pool frames
// and writes dirty pages back on eviction or Flush. Replacement is LRU over
// two classes of unpinned pages. Every pin states its page's class — the
// cache never looks inside a block — and a retained page is evicted only
// when no ordinary unpinned page exists, so what a caller pins as retained
// (the B-tree's nodes above the leaf level) stays resident while ordinary
// pages (its leaves, all of extendible hashing) wash through. A cache too
// small for its retained pages falls back to LRU among them. Retained
// reports how many resident pages are of that class, so a reader that pins
// many pages at once — the B-tree's batched fetch — can size itself by the
// frames that are left instead of pushing the retained pages out. The policy
// simulators replay reference strings without touching a volume and are the
// engine behind experiment F6.
package cache

import (
	"errors"
	"fmt"
	"time"

	"em/internal/pdm"
)

// ErrAllPinned reports that an eviction was required but every cached page
// was pinned — the working set exceeds the configured frame budget.
var ErrAllPinned = errors.New("cache: all pages pinned, cannot evict")

// Page is a cached block. Callers access its contents through Buf and must
// call MarkDirty before mutating, and Unpin when done.
type Page struct {
	// Buf is the block's in-memory image.
	Buf   []byte
	addr  int64
	pins  int
	dirty bool
	// retain is the page's class: which recency chain it is linked into.
	retain bool
	frame  *pdm.Frame // nil while the table slot is free
	// prev and next link the page into the recency chain of its class — the
	// one its latest pin stated; a free slot uses next alone.
	prev, next *Page
}

// Addr returns the page's block address.
func (p *Page) Addr() int64 { return p.addr }

// MarkDirty records that the page's contents changed and must be written
// back before the frame is reused.
func (p *Page) MarkDirty() { p.dirty = true }

// CacheStats counts cache effectiveness.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	WriteBack uint64
}

// Cache is a fixed-capacity pinning block cache with two-class LRU
// replacement.
type Cache struct {
	vol   *pdm.Volume
	pool  *pdm.Pool
	pages map[int64]*Page
	// table holds every Page the cache hands out; it never grows, so a
	// *Page stays valid while pinned. Frames are drawn per resident page.
	table []Page
	free  *Page // unused table slots
	// chains are the sentinels of the two circular recency chains, ordinary
	// then retained: next is the most recently used page, prev the least.
	chains   [2]Page
	retained int // pages linked into the retained chain
	stats    CacheStats
}

// New creates a cache of at most capacity pages, drawing frames from pool.
func New(vol *pdm.Volume, pool *pdm.Pool, capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("cache: capacity must be >= 1, got %d", capacity)
	}
	c := &Cache{
		vol:   vol,
		pool:  pool,
		pages: make(map[int64]*Page, capacity),
		table: make([]Page, capacity),
	}
	for i := range c.chains {
		s := &c.chains[i]
		s.prev, s.next = s, s
	}
	for i := capacity - 1; i >= 0; i-- {
		c.table[i].next = c.free
		c.free = &c.table[i]
	}
	return c, nil
}

// Stats returns a copy of the hit/miss counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Len returns the number of resident pages.
func (c *Cache) Len() int { return len(c.pages) }

// Capacity returns the frame budget the cache was created with.
func (c *Cache) Capacity() int { return len(c.table) }

// Retained returns the number of resident pages whose latest pin stated the
// retained class — the frames ordinary traffic cannot claim. A batched
// reader sizes its pinned groups by what is left (see btree's groupWidth).
func (c *Cache) Retained() int { return c.retained }

// touch makes p the most recently used page of the class its pin states.
func (c *Cache) touch(p *Page, retain bool) {
	s := &c.chains[0]
	if retain {
		s = &c.chains[1]
		c.retained++
	}
	p.retain = retain
	p.prev, p.next = s, s.next
	s.next.prev = p
	s.next = p
}

// unlink takes p out of its recency chain.
func (c *Cache) unlink(p *Page) {
	if p.retain {
		c.retained--
	}
	p.prev.next, p.next.prev = p.next, p.prev
}

// hit records a cache hit on p and pins it — the shared bookkeeping of
// every path that finds a resident page. The class follows the latest pin.
func (c *Cache) hit(p *Page, retain bool) {
	c.stats.Hits++
	p.pins++
	c.unlink(p)
	c.touch(p, retain)
}

// Get pins block addr as an ordinary page: Pin(addr, false).
func (c *Cache) Get(addr int64) (*Page, error) { return c.Pin(addr, false) }

// Pin pins block addr, reading it from the volume on a miss, and states its
// class: a retained page outlives every ordinary unpinned page. Every Pin
// must be paired with an Unpin.
func (c *Cache) Pin(addr int64, retain bool) (*Page, error) {
	if p, ok := c.pages[addr]; ok {
		c.hit(p, retain)
		return p, nil
	}
	c.stats.Misses++
	p, err := c.admit(addr, retain)
	if err != nil {
		return nil, err
	}
	if err := c.vol.ReadBlock(addr, p.Buf); err != nil {
		c.discard(p)
		return nil, err
	}
	return p, nil
}

// GetNew pins block addr without reading it, for freshly allocated blocks
// whose on-disk contents are irrelevant. The page starts zeroed, dirty and
// ordinary.
func (c *Cache) GetNew(addr int64) (*Page, error) {
	if p, ok := c.pages[addr]; ok {
		c.hit(p, false)
		p.dirty = true
		clear(p.Buf)
		return p, nil
	}
	c.stats.Misses++
	p, err := c.admit(addr, false)
	if err != nil {
		return nil, err
	}
	clear(p.Buf)
	p.dirty = true
	return p, nil
}

// Peek pins block addr, in the stated class, if it is resident and returns
// nil — performing no I/O and admitting nothing — when it is not. It is the
// cache-residency probe behind the B-tree scanner's forecasting: upcoming
// leaf addresses are taken from parent nodes only while those parents are
// actually in memory, so forecasting never charges a block read the
// synchronous path would not.
func (c *Cache) Peek(addr int64, retain bool) *Page {
	p, ok := c.pages[addr]
	if !ok {
		return nil
	}
	c.hit(p, retain)
	return p
}

// GetBatchAsync pins every block of addrs in the stated class — cache hits
// immediately, misses through one batched read dispatched with
// Volume.BatchReadAsync — and returns the pinned pages aligned with addrs
// plus the deadline of the misses' read (zero when every block hit). Every
// page holds its block's bytes on return; a caller that models its overlap
// honestly treats the miss pages as in flight until Volume.Wait on the
// deadline returns. This is read-only admission: no page is marked dirty,
// and making room evicts only unpinned pages (as always), so a concurrent
// writer's pinned working set is never disturbed. The caller must Unpin
// every page; on an error the cache has already unpinned everything and
// dropped the unfilled pages, and returns neither pages nor a deadline.
//
// The caller must keep len(addrs) below the cache capacity (the batch is
// pinned as a whole); duplicate addresses are allowed and share one page.
func (c *Cache) GetBatchAsync(addrs []int64, retain bool) ([]*Page, time.Time, error) {
	pages := make([]*Page, len(addrs))
	var miss []int
	for i, a := range addrs {
		if p, ok := c.pages[a]; ok {
			c.hit(p, retain)
			pages[i] = p
			continue
		}
		c.stats.Misses++
		p, err := c.admit(a, retain)
		if err != nil {
			c.failBatch(pages[:i], miss)
			return nil, time.Time{}, err
		}
		pages[i] = p
		miss = append(miss, i)
	}
	if len(miss) == 0 {
		return pages, time.Time{}, nil
	}
	mAddrs := make([]int64, len(miss))
	mBufs := make([][]byte, len(miss))
	for k, i := range miss {
		mAddrs[k] = addrs[i]
		mBufs[k] = pages[i].Buf
	}
	deadline, err := c.vol.BatchReadAsync(mAddrs, mBufs)
	if err != nil {
		c.failBatch(pages, miss)
		return nil, time.Time{}, err
	}
	return pages, deadline, nil
}

// failBatch unwinds a failed GetBatchAsync: every page loses the batch's
// pin, and the pages admitted for reads that never completed — which hold
// no valid block image — are dropped so a later Get cannot hit garbage.
// Miss pages are admitted clean, so discarding writes nothing back.
func (c *Cache) failBatch(pages []*Page, miss []int) {
	for _, p := range pages {
		if p.pins <= 0 {
			panic("cache: unpin of unpinned page")
		}
		p.pins--
	}
	for _, i := range miss {
		if i >= len(pages) {
			break
		}
		if p := pages[i]; p.pins == 0 {
			c.discard(p)
		}
	}
}

// admit makes room if needed and installs a pinned page for addr in a free
// table slot.
func (c *Cache) admit(addr int64, retain bool) (*Page, error) {
	if c.free == nil {
		if err := c.evictOne(); err != nil {
			return nil, err
		}
	}
	frame, err := c.pool.Alloc()
	if err != nil {
		return nil, err
	}
	p := c.free
	c.free = p.next
	*p = Page{Buf: frame.Buf, addr: addr, pins: 1, frame: frame}
	c.touch(p, retain)
	c.pages[addr] = p
	return p, nil
}

// evictOne removes the least recently used unpinned page — an ordinary one
// if there is any, a retained one otherwise — writing it back if dirty.
func (c *Cache) evictOne() error {
	for i := range c.chains {
		s := &c.chains[i]
		for p := s.prev; p != s; p = p.prev {
			if p.pins > 0 {
				continue
			}
			if p.dirty {
				if err := c.vol.WriteBlock(p.addr, p.Buf); err != nil {
					return err
				}
				c.stats.WriteBack++
			}
			c.stats.Evictions++
			c.discard(p)
			return nil
		}
	}
	return ErrAllPinned
}

// discard removes a page from all cache bookkeeping, returns its frame and
// frees its table slot, forgetting the page's class and dirty bit.
func (c *Cache) discard(p *Page) {
	c.unlink(p)
	delete(c.pages, p.addr)
	p.frame.Release()
	*p = Page{next: c.free}
	c.free = p
}

// Unpin releases one pin on p. Unpinning an unpinned page panics: it means
// the caller's pin accounting is corrupt.
func (c *Cache) Unpin(p *Page) {
	if p.pins <= 0 {
		panic("cache: unpin of unpinned page")
	}
	p.pins--
}

// Flush writes every dirty page back to the volume, keeping pages resident.
// Pages go out in table-slot order, which depends only on the sequence of
// operations that filled the cache, so equal histories flush identically.
func (c *Cache) Flush() error {
	for i := range c.table {
		p := &c.table[i]
		if p.dirty {
			if err := c.vol.WriteBlock(p.addr, p.Buf); err != nil {
				return err
			}
			p.dirty = false
			c.stats.WriteBack++
		}
	}
	return nil
}

// Close flushes and drops every page, returning all frames to the pool.
// The cache must have no pinned pages.
func (c *Cache) Close() error {
	for i := range c.table {
		if p := &c.table[i]; p.pins > 0 {
			return fmt.Errorf("cache: close with page %d still pinned", p.addr)
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	return c.Discard()
}

// Discard drops every unpinned page without writing it back, returning its
// frame to the pool: the teardown of a cache whose blocks are all being
// freed. It needs no transfer, so it cannot strand frames on a failed
// device. A pinned page stays and is reported.
func (c *Cache) Discard() error {
	var err error
	for i := range c.table {
		switch p := &c.table[i]; {
		case p.pins > 0:
			err = fmt.Errorf("cache: discard with page %d still pinned", p.addr)
		case p.frame != nil:
			c.discard(p)
		}
	}
	return err
}

// Drop removes block addr from the cache without writing it back, for blocks
// that have been freed. No-op if absent or pinned.
func (c *Cache) Drop(addr int64) {
	if p, ok := c.pages[addr]; ok && p.pins == 0 {
		c.discard(p)
	}
}
