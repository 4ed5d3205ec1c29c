package btree

import (
	"fmt"

	"em/internal/cache"
	"em/internal/index"
	"em/internal/pdm"
)

// The tree and its sessions present the module-wide serving contract.
var (
	_ index.Index   = (*Tree)(nil)
	_ index.Session = (*Session)(nil)
)

// Session is a read-only query handle over a shared tree. Each session owns
// a private buffer manager and a private frame budget, carved from the
// caller's pool up front (pdm.Pool.Carve) the way em.SortIndex carves its
// loader's budget: the session reads into the very frames the caller's
// pool counts. So G sessions on G goroutines serve a mixed point/range
// workload against one tree — the volume's per-disk engine overlaps their
// transfers — while the memory bound M still holds and no session can
// starve another mid-query. Sessions never dirty a page and never touch
// the tree's own cache, so they cannot evict a writer's pinned working
// set. Two constraints: sessions must not overlap tree mutations (Insert,
// Delete, BulkLoad — the usual reader rule), and NewSession itself is a
// Tree method like any other — it flushes the tree's own cache — so open
// sessions from the tree owner's goroutine and hand them out; only the
// Session methods are safe to run concurrently, each session from its own
// goroutine.
type Session struct {
	t     *Tree
	cache *cache.Cache
	pool  *pdm.Pool // carved from the caller's pool; serves the cache and scanners
	width int
}

// NewSession opens a read session at the index.Index signature: the budget
// is carved from the pool the tree was created on (or last rehomed to),
// out-of-range arguments select the tree's own defaults — cacheFrames < 3
// means the tree's cache capacity, width < 1 its configured striping — so
// NewSession(0, 0) is always valid. NewSessionOn keeps the explicit-pool
// form for callers that charge sessions to a budget of their own.
func (t *Tree) NewSession(cacheFrames, width int) (index.Session, error) {
	if cacheFrames < 3 {
		cacheFrames = t.cache.Capacity()
	}
	if width < 1 {
		width = t.width
	}
	var s *Session
	err := t.gate.Do(func() (err error) {
		s, err = t.NewSessionOn(t.pool, cacheFrames, width)
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// SessionFrames is a read session's budget, the frames NewSessionOn
// carves: cacheFrames for its buffer manager plus 2×width for its
// scanner's double buffer.
func SessionFrames(cacheFrames, width int) int { return cacheFrames + 2*width }

// NewSessionOn opens a read session whose buffer manager holds cacheFrames
// pages and whose scanners may keep up to width leaf reads in flight
// (width < 1 selects the volume's disk count). The session's whole budget,
// SessionFrames, is carved from pool immediately and returned by Close,
// so admission failures surface at open, not mid-query. The session reads
// into those frames and makes no buffer of its own, so opening and
// closing sessions on a warm pool allocates no block.
func (t *Tree) NewSessionOn(pool *pdm.Pool, cacheFrames, width int) (*Session, error) {
	if cacheFrames < 3 {
		return nil, fmt.Errorf("btree: session cache needs >= 3 frames, got %d", cacheFrames)
	}
	if width < 1 {
		width = t.vol.Disks()
	}
	// A session reads through its own buffer manager, so the volume — not
	// the tree's cache — must hold the current tree: flush any node still
	// dirty from construction or updates before the first session descent.
	if err := t.cache.Flush(); err != nil {
		return nil, err
	}
	priv, err := pool.Carve(SessionFrames(cacheFrames, width))
	if err != nil {
		return nil, err
	}
	c, err := cache.New(t.vol, priv, cacheFrames)
	if err != nil {
		priv.Close()
		return nil, err
	}
	return &Session{t: t, cache: c, pool: priv, width: width}, nil
}

// Tree returns the tree the session reads.
func (s *Session) Tree() *Tree { return s.t }

// CacheStats exposes the session's private buffer-manager counters.
func (s *Session) CacheStats() cache.CacheStats { return s.cache.Stats() }

// Get is Tree.Get through the session's cache.
func (s *Session) Get(key uint64) (uint64, bool, error) {
	return s.t.getWith(s.cache, key)
}

// GetBatch is Tree.GetBatch through the session's cache: sorted, deduped,
// level-batched lookups at reads never above a loop of session Gets.
func (s *Session) GetBatch(keys []uint64) ([]uint64, []bool, error) {
	return s.t.getBatch(s.cache, keys)
}

// NewScanner opens a prefetched range scan served from the session's cache
// and frame budget. A nil opts — or a width above the session's — scans at
// the session's width, which is what the budget reserves for.
func (s *Session) NewScanner(lo, hi uint64, opts *ScanOptions) (*Scanner, error) {
	w := opts.width(s.width)
	if w > s.width {
		w = s.width
	}
	return s.t.newScanner(s.cache, s.pool, lo, hi, &ScanOptions{Width: w})
}

// Warm is Tree.Warm into the session's private cache.
func (s *Session) Warm() error { return s.t.warmWith(s.cache) }

// Close releases the session's cache and returns its carved frames to the
// pool it was opened on; a frame a still-open scanner holds goes back when
// that scanner closes. The cache holds only clean pages, so nothing is
// written back.
func (s *Session) Close() error {
	err := s.cache.Close()
	s.pool.Close()
	return err
}
