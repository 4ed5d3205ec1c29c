// Package btree implements an external-memory B+-tree, the survey's
// canonical online search structure: Θ(log_B N) I/Os per point operation,
// Θ(log_B N + Z/B) per range query, and Θ(Sort(N)) for bottom-up bulk
// loading from a sorted stream.
//
// Keys and values are uint64; the key space is treated as a map (Insert
// overwrites). Nodes occupy exactly one block. Blocks move through a small
// pinning cache, and the tree tells it at every pin whether the node sits
// above the leaf level: those nodes are pinned as retained, which the cache
// evicts only when it holds no unpinned leaf, so the upper levels stay in
// memory for as long as they fit and a search costs about one I/O — the
// survey's "top levels in internal memory". Leaves are ordinary pages and
// wash through LRU; a cache smaller than the internal levels keeps the most
// recently used of them.
//
// BulkLoad's input can be striped over the disks and driven by a
// forecasting prefetch reader (see BulkLoadOptions): the sorted run is
// consumed strictly in order, so its next block group stays in flight while
// leaves are packed and nodes written back, at counted I/Os identical to
// the synchronous reader's.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"em/internal/cache"
	"em/internal/index"
	"em/internal/pdm"
)

// ErrBlockTooSmall reports a block size too small to host a B-tree node.
var ErrBlockTooSmall = errors.New("btree: block too small for a node")

// Node layout (little-endian):
//
//	off 0  uint16  flags (bit 0 set = leaf)
//	off 2  uint16  count
//	off 4  uint32  reserved
//	off 8  int64   next-leaf address (leaves) / unused (internal)
//	off 16 payload:
//	  leaf:     count × (key uint64, val uint64) pairs, 16 bytes each
//	  internal: keys at 16+8i (maxKeys slots), children at keyEnd+8j
//	            (maxKeys+1 slots)
const (
	offFlags = 0
	offCount = 2
	offNext  = 8
	offData  = 16

	flagLeaf = 1
)

// internal is the buffer-manager class of a node above the leaf level
// (level > 1): pinned as retained, so leaf traffic cannot evict it. Leaves
// are pinned as ordinary pages.
const internal = true

// Tree is an external B+-tree over (uint64 key → uint64 value).
type Tree struct {
	vol     *pdm.Volume
	pool    *pdm.Pool // the pool the tree was created on: serves Scan and NewSession
	cache   *cache.Cache
	root    int64
	height  int // 1 = root is a leaf
	n       int64
	leafCap int
	keyCap  int // max keys in an internal node
	// width is the default striping of Scan and NewSession, usually the disk
	// count. Batched lookups size their own groups (groupWidth).
	width int

	// Admission control over the serving entry points; nil means off
	// (starvation surfaces immediately as pdm.ErrNoFrames).
	gate       *index.Gate
	admitQueue int
	admitWait  time.Duration
}

// Options normalizes tree construction onto the option-struct convention
// BulkLoadOptions and store.Config already follow, so the sharded facades
// don't invent a third one. The zero value is a served tree at the
// defaults.
type Options struct {
	// CacheFrames sizes the tree's buffer manager. Zero means 8; values
	// below 3 (a split pins parent, child, and sibling at once) are an
	// error.
	CacheFrames int
	// Width is the default striping of Scan and NewSession — the leaf
	// reads kept in flight. Zero picks the volume's disk count.
	Width int
	// AdmitQueue and AdmitWait enable admission control on the serving
	// entry points (GetBatch, Scan, NewSession): a request that finds the
	// pool starved joins a bounded FIFO of at most AdmitQueue waiters and
	// retries as frames free up, for at most AdmitWait, before shedding
	// with an index.OverloadError (which wraps pdm.ErrNoFrames). Both
	// zero — the default — leaves admission off and starvation a hard
	// error; setting one picks the package default for the other.
	AdmitQueue int
	AdmitWait  time.Duration
}

// New creates an empty tree whose node blocks live on vol and whose working
// pages are served by a buffer manager drawing opts.CacheFrames frames from
// pool; nil options take every default.
func New(vol *pdm.Volume, pool *pdm.Pool, opts *Options) (*Tree, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.CacheFrames == 0 {
		o.CacheFrames = 8
	}
	if err := checkFrames(o.CacheFrames); err != nil {
		return nil, err
	}
	if o.Width < 1 {
		o.Width = vol.Disks()
	}
	bb := vol.BlockBytes()
	// One spare slot per node absorbs the transient overflow between insert
	// and split, so capacities are one below what the block could hold.
	leafCap := (bb-offData)/16 - 1
	keyCap := (bb - offData - 24) / 16 // fits keyCap+1 keys and keyCap+2 children
	if leafCap < 2 || keyCap < 2 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBlockTooSmall, bb)
	}
	c, err := cache.New(vol, pool, o.CacheFrames)
	if err != nil {
		return nil, err
	}
	t := &Tree{vol: vol, pool: pool, cache: c, leafCap: leafCap, keyCap: keyCap, height: 1, width: o.Width,
		gate: index.NewGate(pool, o.AdmitQueue, o.AdmitWait), admitQueue: o.AdmitQueue, admitWait: o.AdmitWait}
	root, err := t.newNode(true)
	if err != nil {
		return nil, err
	}
	t.root = root.Addr()
	c.Unpin(root)
	return t, nil
}

// checkFrames rejects a buffer manager below three frames: a split pins a
// parent, a child, and the new sibling simultaneously.
func checkFrames(n int) error {
	if n < 3 {
		return fmt.Errorf("btree: cache needs >= 3 frames, got %d", n)
	}
	return nil
}

// Close flushes and releases the tree's cache.
func (t *Tree) Close() error { return t.cache.Close() }

// Rehome flushes the tree's buffer manager and replaces it with a fresh one
// drawing cacheFrames frames from pool. em.SortIndex builds trees against a
// carved construction budget and rehomes them onto the caller's pool
// before returning, so a tree's steady-state frames are always charged
// where its future I/O is. The cache must have no pinned pages.
func (t *Tree) Rehome(pool *pdm.Pool, cacheFrames int) error {
	if err := checkFrames(cacheFrames); err != nil {
		return err
	}
	// Close (flush) the old cache before creating the replacement, so a
	// flush failure leaves nothing half-constructed behind; the new cache
	// allocates its frames lazily, so creation cannot fail on a tight pool.
	if err := t.cache.Close(); err != nil {
		return err
	}
	c, err := cache.New(t.vol, pool, cacheFrames)
	if err != nil {
		return err
	}
	t.cache = c
	t.pool = pool
	// Admission waits on the pool the serving budget comes from, so the
	// gate follows the rehome.
	t.gate = index.NewGate(pool, t.admitQueue, t.admitWait)
	return nil
}

// Stats returns a snapshot of the underlying volume's I/O counters.
func (t *Tree) Stats() pdm.Stats { return t.vol.Stats().Snapshot() }

// Len returns the number of keys stored.
func (t *Tree) Len() int64 { return t.n }

// Height returns the number of levels (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Fanout returns the maximum internal fanout.
func (t *Tree) Fanout() int { return t.keyCap + 1 }

// CacheStats exposes the buffer-manager counters.
func (t *Tree) CacheStats() cache.CacheStats { return t.cache.Stats() }

// --- node accessors -------------------------------------------------------
//
// The buf* functions operate on a raw block image, so a node can be built
// directly in a pool frame (the bulk loader's leaves) as well as in a
// cache page; the page accessors delegate to them and add the
// dirty-bit bookkeeping the buffer manager needs.

func bufInitNode(b []byte, leaf bool) {
	clear(b)
	var flags uint16
	if leaf {
		flags = flagLeaf
	}
	binary.LittleEndian.PutUint16(b[offFlags:], flags)
	binary.LittleEndian.PutUint64(b[offNext:], ^uint64(0)) // -1: no sibling
}
func bufSetCount(b []byte, n int) { binary.LittleEndian.PutUint16(b[offCount:], uint16(n)) }
func bufSetNextLeaf(b []byte, a int64) {
	binary.LittleEndian.PutUint64(b[offNext:], uint64(a))
}
func bufSetLeafKV(b []byte, i int, k, v uint64) {
	binary.LittleEndian.PutUint64(b[offData+16*i:], k)
	binary.LittleEndian.PutUint64(b[offData+16*i+8:], v)
}

func bufCount(b []byte) int      { return int(binary.LittleEndian.Uint16(b[offCount:])) }
func bufNextLeaf(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b[offNext:])) }
func bufLeafKey(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[offData+16*i:])
}
func bufLeafVal(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[offData+16*i+8:])
}

// bufSearchLeafSlot returns the index of the first leaf key >= k in a raw
// leaf image.
func bufSearchLeafSlot(b []byte, k uint64) int {
	lo, hi := 0, bufCount(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if bufLeafKey(b, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func isLeaf(p *cache.Page) bool { return binary.LittleEndian.Uint16(p.Buf[offFlags:])&flagLeaf != 0 }
func count(p *cache.Page) int   { return bufCount(p.Buf) }
func setCount(p *cache.Page, n int) {
	bufSetCount(p.Buf, n)
	p.MarkDirty()
}
func nextLeaf(p *cache.Page) int64 { return bufNextLeaf(p.Buf) }
func setNextLeaf(p *cache.Page, a int64) {
	bufSetNextLeaf(p.Buf, a)
	p.MarkDirty()
}

func leafKey(p *cache.Page, i int) uint64 { return bufLeafKey(p.Buf, i) }
func leafVal(p *cache.Page, i int) uint64 { return bufLeafVal(p.Buf, i) }
func setLeafKV(p *cache.Page, i int, k, v uint64) {
	bufSetLeafKV(p.Buf, i, k, v)
	p.MarkDirty()
}

func (t *Tree) childBase() int { return offData + 8*(t.keyCap+1) }

func intKey(p *cache.Page, i int) uint64 {
	return binary.LittleEndian.Uint64(p.Buf[offData+8*i:])
}
func setIntKey(p *cache.Page, i int, k uint64) {
	binary.LittleEndian.PutUint64(p.Buf[offData+8*i:], k)
	p.MarkDirty()
}
func (t *Tree) child(p *cache.Page, i int) int64 {
	return int64(binary.LittleEndian.Uint64(p.Buf[t.childBase()+8*i:]))
}
func (t *Tree) setChild(p *cache.Page, i int, a int64) {
	binary.LittleEndian.PutUint64(p.Buf[t.childBase()+8*i:], uint64(a))
	p.MarkDirty()
}

// newNode allocates and pins a fresh zeroed node page. If the cache cannot
// admit the page (pool exhausted, every frame pinned), the just-allocated
// block is returned to the volume rather than stranded.
func (t *Tree) newNode(leaf bool) (*cache.Page, error) {
	addr := t.vol.Alloc(1)
	p, err := t.cache.GetNew(addr)
	if err != nil {
		t.vol.Free(addr)
		return nil, err
	}
	bufInitNode(p.Buf, leaf)
	p.MarkDirty()
	return p, nil
}

// searchLeafSlot returns the index of the first leaf key >= k.
func searchLeafSlot(p *cache.Page, k uint64) int { return bufSearchLeafSlot(p.Buf, k) }

// searchChildSlot returns the child index to descend into for key k: the
// number of separator keys <= k.
func searchChildSlot(p *cache.Page, k uint64) int {
	lo, hi := 0, count(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if intKey(p, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key.
func (t *Tree) Get(key uint64) (uint64, bool, error) {
	return t.getWith(t.cache, key)
}

// getWith is Get through an explicit buffer manager, shared between the
// tree's own cache and read Sessions' private ones.
func (t *Tree) getWith(c *cache.Cache, key uint64) (uint64, bool, error) {
	addr := t.root
	for level := t.height; level > 1; level-- {
		p, err := c.Pin(addr, internal)
		if err != nil {
			return 0, false, err
		}
		addr = t.child(p, searchChildSlot(p, key))
		c.Unpin(p)
	}
	p, err := c.Get(addr)
	if err != nil {
		return 0, false, err
	}
	defer c.Unpin(p)
	i := searchLeafSlot(p, key)
	if i < count(p) && leafKey(p, i) == key {
		return leafVal(p, i), true, nil
	}
	return 0, false, nil
}

// Insert stores value under key, overwriting any previous value. It returns
// true if the key was new.
func (t *Tree) Insert(key, val uint64) (bool, error) {
	promoKey, promoAddr, added, err := t.insertAt(t.root, t.height, key, val)
	if err != nil {
		return false, err
	}
	if promoAddr >= 0 {
		// Root split: grow the tree by one level.
		newRoot, err := t.newNode(false)
		if err != nil {
			return false, err
		}
		setCount(newRoot, 1)
		setIntKey(newRoot, 0, promoKey)
		t.setChild(newRoot, 0, t.root)
		t.setChild(newRoot, 1, promoAddr)
		t.root = newRoot.Addr()
		t.height++
		t.cache.Unpin(newRoot)
	}
	if added {
		t.n++
	}
	return added, nil
}

// insertAt inserts into the subtree rooted at addr (at the given level,
// 1 = leaf). On split it returns the promoted separator key and the new
// right sibling's address; promoAddr is -1 when no split occurred.
//
// Only O(1) pages are pinned at any moment: the parent is unpinned during
// the recursive descent and re-pinned only if the child split. This keeps
// the tree usable with a three-frame buffer manager, at the cost of an
// occasional extra read when the parent was evicted mid-descent — exactly
// the trade a real buffer manager makes.
func (t *Tree) insertAt(addr int64, level int, key, val uint64) (promoKey uint64, promoAddr int64, added bool, err error) {
	p, err := t.cache.Pin(addr, level > 1)
	if err != nil {
		return 0, -1, false, err
	}

	if level == 1 {
		defer t.cache.Unpin(p)
		i := searchLeafSlot(p, key)
		n := count(p)
		if i < n && leafKey(p, i) == key {
			setLeafKV(p, i, key, val)
			return 0, -1, false, nil
		}
		// Shift right and insert; the layout reserves one spare slot for
		// this transient overflow.
		for j := n; j > i; j-- {
			setLeafKV(p, j, leafKey(p, j-1), leafVal(p, j-1))
		}
		setLeafKV(p, i, key, val)
		setCount(p, n+1)
		if n+1 <= t.leafCap {
			return 0, -1, true, nil
		}
		return t.splitLeaf(p)
	}

	slot := searchChildSlot(p, key)
	childAddr := t.child(p, slot)
	t.cache.Unpin(p)
	ck, ca, added, err := t.insertAt(childAddr, level-1, key, val)
	if err != nil {
		return 0, -1, false, err
	}
	if ca < 0 {
		return 0, -1, added, nil
	}
	// The child split: re-pin the parent and install the new separator.
	p, err = t.cache.Pin(addr, internal)
	if err != nil {
		return 0, -1, false, err
	}
	defer t.cache.Unpin(p)
	n := count(p)
	for j := n; j > slot; j-- {
		setIntKey(p, j, intKey(p, j-1))
		t.setChild(p, j+1, t.child(p, j))
	}
	setIntKey(p, slot, ck)
	t.setChild(p, slot+1, ca)
	setCount(p, n+1)
	if n+1 <= t.keyCap {
		return 0, -1, added, nil
	}
	pk, pa, _, err := t.splitInternal(p)
	return pk, pa, added, err
}

// splitLeaf moves the upper half of an over-full leaf into a new right
// sibling, returning the first right key as separator.
func (t *Tree) splitLeaf(p *cache.Page) (uint64, int64, bool, error) {
	n := count(p)
	right, err := t.newNode(true)
	if err != nil {
		return 0, -1, false, err
	}
	defer t.cache.Unpin(right)
	mid := n / 2
	for j := mid; j < n; j++ {
		setLeafKV(right, j-mid, leafKey(p, j), leafVal(p, j))
	}
	setCount(right, n-mid)
	setCount(p, mid)
	setNextLeaf(right, nextLeaf(p))
	setNextLeaf(p, right.Addr())
	return leafKey(right, 0), right.Addr(), true, nil
}

// splitInternal moves the upper half of an over-full internal node into a
// new right sibling, promoting the middle key.
func (t *Tree) splitInternal(p *cache.Page) (uint64, int64, bool, error) {
	n := count(p)
	right, err := t.newNode(false)
	if err != nil {
		return 0, -1, false, err
	}
	defer t.cache.Unpin(right)
	mid := n / 2
	promo := intKey(p, mid)
	for j := mid + 1; j < n; j++ {
		setIntKey(right, j-mid-1, intKey(p, j))
	}
	for j := mid + 1; j <= n; j++ {
		t.setChild(right, j-mid-1, t.child(p, j))
	}
	setCount(right, n-mid-1)
	setCount(p, mid)
	return promo, right.Addr(), true, nil
}

// Range calls fn for every (key, value) with lo <= key <= hi, in key order.
// It descends once and then follows leaf sibling links: Θ(log_B N + Z/B)
// I/Os for Z reported records.
func (t *Tree) Range(lo, hi uint64, fn func(k, v uint64) error) error {
	addr := t.root
	for level := t.height; level > 1; level-- {
		p, err := t.cache.Pin(addr, internal)
		if err != nil {
			return err
		}
		addr = t.child(p, searchChildSlot(p, lo))
		t.cache.Unpin(p)
	}
	for addr >= 0 {
		p, err := t.cache.Get(addr)
		if err != nil {
			return err
		}
		n := count(p)
		for i := searchLeafSlot(p, lo); i < n; i++ {
			k := leafKey(p, i)
			if k > hi {
				t.cache.Unpin(p)
				return nil
			}
			if err := fn(k, leafVal(p, i)); err != nil {
				t.cache.Unpin(p)
				return err
			}
		}
		next := nextLeaf(p)
		t.cache.Unpin(p)
		addr = next
	}
	return nil
}

// Min returns the smallest key and its value.
func (t *Tree) Min() (uint64, uint64, bool, error) {
	if t.n == 0 {
		return 0, 0, false, nil
	}
	addr := t.root
	for level := t.height; level > 1; level-- {
		p, err := t.cache.Pin(addr, internal)
		if err != nil {
			return 0, 0, false, err
		}
		addr = t.child(p, 0)
		t.cache.Unpin(p)
	}
	p, err := t.cache.Get(addr)
	if err != nil {
		return 0, 0, false, err
	}
	defer t.cache.Unpin(p)
	if count(p) == 0 {
		return 0, 0, false, nil
	}
	return leafKey(p, 0), leafVal(p, 0), true, nil
}

// Max returns the largest key and its value, Min's right-edge mirror: it
// descends the last child at every level and reads the rightmost leaf's
// last slot, Θ(log_B N) I/Os.
func (t *Tree) Max() (uint64, uint64, bool, error) {
	if t.n == 0 {
		return 0, 0, false, nil
	}
	addr := t.root
	for level := t.height; level > 1; level-- {
		p, err := t.cache.Pin(addr, internal)
		if err != nil {
			return 0, 0, false, err
		}
		addr = t.child(p, count(p))
		t.cache.Unpin(p)
	}
	p, err := t.cache.Get(addr)
	if err != nil {
		return 0, 0, false, err
	}
	defer t.cache.Unpin(p)
	n := count(p)
	if n == 0 {
		return 0, 0, false, nil
	}
	return leafKey(p, n-1), leafVal(p, n-1), true, nil
}
