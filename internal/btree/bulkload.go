package btree

import (
	"errors"
	"time"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// ErrUnsortedInput reports a bulk-load stream that is not strictly
// increasing by key.
var ErrUnsortedInput = errors.New("btree: bulk load input not strictly sorted by key")

// BulkLoadOptions tunes the bulk loader's input and leaf-output streams.
type BulkLoadOptions struct {
	// Width is the striping width of the input reader and of the leaf
	// batches; set it to the volume's disk count D to move D blocks per
	// parallel batch. Zero means 1.
	Width int
	// Deprecated: BulkLoad reads its input ahead whenever the pool has
	// room for it; kept until bench/ stops setting it.
	Async bool
	// Deprecated: leaves always stream out write-behind (see Loader); kept
	// until bench/ stops setting it.
	WriteBehind bool
}

func (o *BulkLoadOptions) width() int {
	if o == nil || o.Width < 1 {
		return 1
	}
	return o.Width
}

// BulkLoad builds a tree bottom-up from a file of records sorted strictly by
// key through a Width-striped reader (see BulkLoadFrom for the construction
// itself). The reader takes the depth stream.Depth gives one stream in what
// pool has free beyond LoaderFrames: ahead (forecasting read-ahead) when
// that holds its second group, so the next block group of the sorted run
// stays in flight while the loader packs leaves and writes nodes back —
// the survey's read-ahead applied to index construction — and on demand
// otherwise; counted I/Os are the same either way. A nil opts reads and
// writes one block per batch.
func BulkLoad(vol *pdm.Volume, pool *pdm.Pool, cacheFrames int, sorted *stream.File[record.Record], opts *BulkLoadOptions) (*Tree, error) {
	w := opts.width()
	depth := stream.Depth(pool.Free()-LoaderFrames(cacheFrames, w), 1, w)
	r, err := stream.OpenSource(sorted, pool, w, depth)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return BulkLoadFrom(vol, pool, cacheFrames, r, opts)
}

// BulkLoadFrom is the pull face of the bulk loader: it drains src, a stream
// of records sorted strictly by key, into a Loader and returns the finished
// tree. On any error the pool and the volume are exactly as they were (see
// Loader). BulkLoadFrom does not close src.
func BulkLoadFrom(vol *pdm.Volume, pool *pdm.Pool, cacheFrames int, src stream.Source[record.Record], opts *BulkLoadOptions) (*Tree, error) {
	l, err := NewLoader(vol, pool, cacheFrames, opts)
	if err != nil {
		return nil, err
	}
	for {
		rec, ok, err := src.Next()
		if err != nil {
			l.Abort()
			return nil, err
		}
		if !ok {
			break
		}
		if err := l.Append(rec); err != nil {
			l.Abort()
			return nil, err
		}
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	return l.Tree(), nil
}

// levelEntry is one node of a finished level, as its parent indexes it.
type levelEntry struct {
	firstKey uint64
	addr     int64
}

// Loader is the push face of the bulk loader, a stream.Sink of records
// sorted strictly by key: Append packs leaves left to right at full
// occupancy, and Close builds each internal level over the previous one and
// hands the tree out through Tree. The whole construction costs Θ(N/B) I/Os
// on top of whatever produced the input — fed by a distribution sort's base
// cases, that is the survey's Sort(N) index-construction bound, versus
// Θ(N·log_B N) for repeated insertion (experiment T9).
//
// Each leaf's successor block is allocated the moment the leaf overflows,
// so the sibling pointer is threaded forward into the leaf before it is
// sealed, and no leaf is ever revisited. Leaves therefore need none of the
// buffer manager's machinery: each is packed directly in a pool frame, and
// every Width sealed leaves leave as one parallel batch through
// Volume.BatchWriteAsync while the loader packs the next group in the other
// half of a 2×Width double buffer — the survey's full D-disk write
// parallelism applied to index construction. Each leaf costs exactly one
// block write. Internal nodes, at most N/B of them, go through the cache.
//
// Abort discards whatever the load built, at any point before the tree is
// handed on — a closed load included: it waits out any in-flight leaf batch
// (its frames are busy until then), returns the leaf frames, drops and frees
// every node the load allocated, and closes the buffer manager, so the pool
// and the volume are exactly as they were. A Close that fails aborts the
// same way. Every path that does not keep the tree must end in Close's
// failure or in Abort.
type Loader struct {
	t *Tree

	// The leaf double buffer: cur is the group being packed and flushing
	// the group in flight, the two halves of frames. addrs holds the blocks
	// of cur's sealed leaves and, last, of the leaf being packed; bufs is
	// the batch's buffer slice, reused by every dispatch.
	frames   []*pdm.Frame // nil after Close or Abort
	cur      []*pdm.Frame
	flushing []*pdm.Frame
	addrs    []int64
	bufs     [][]byte
	due      time.Time // deadline of the last leaf batch

	buf     []byte // block image of the leaf being packed
	count   int    // records in it
	first   uint64 // its first key
	prev    uint64 // last key appended
	leaves  []levelEntry
	nodes   []int64 // every block the load allocated
	done    bool    // closed or aborted: Append refuses
	aborted bool
}

// LoaderFrames is a bulk load's budget, the most frames NewLoader draws
// from its pool: cacheFrames for the buffer manager plus the 2×width leaf
// double buffer.
func LoaderFrames(cacheFrames, width int) int { return cacheFrames + 2*width }

// NewLoader starts a bulk load of a tree whose nodes live on vol and whose
// buffer manager draws cacheFrames frames from pool (taken literally: zero
// is an error, not the default); the leaf double buffer takes another
// 2×Width frames from pool, LoaderFrames in all.
func NewLoader(vol *pdm.Volume, pool *pdm.Pool, cacheFrames int, opts *BulkLoadOptions) (*Loader, error) {
	if err := checkFrames(cacheFrames); err != nil {
		return nil, err
	}
	t, err := New(vol, pool, &Options{CacheFrames: cacheFrames})
	if err != nil {
		return nil, err
	}
	// New's placeholder root would cost one spurious block write whenever
	// the cache evicted it mid-load; drop and free it now so every write the
	// load performs is a node of the final tree.
	t.cache.Drop(t.root)
	t.vol.Free(t.root)
	l := &Loader{t: t}
	width := opts.width()
	if l.frames, err = pool.AllocN(2 * width); err != nil {
		l.Abort()
		return nil, err
	}
	l.cur, l.flushing = l.frames[:width], l.frames[width:]
	l.addrs = make([]int64, 0, width)
	l.bufs = make([][]byte, width)
	l.start(l.alloc())
	return l, nil
}

// Append adds the next record, which must have a key strictly greater than
// every key before it.
func (l *Loader) Append(rec record.Record) error {
	if l.done {
		return stream.ErrClosed
	}
	if l.t.n > 0 && rec.Key <= l.prev {
		return ErrUnsortedInput
	}
	if l.count == l.t.leafCap {
		if err := l.nextLeaf(); err != nil {
			return err
		}
	}
	if l.count == 0 {
		l.first = rec.Key
	}
	bufSetLeafKV(l.buf, l.count, rec.Key, rec.Val)
	l.count++
	l.prev = rec.Key
	l.t.n++
	return nil
}

// alloc takes one block for a node of the tree, remembering it for Abort.
func (l *Loader) alloc() int64 {
	a := l.t.vol.Alloc(1)
	l.nodes = append(l.nodes, a)
	return a
}

// start begins packing an empty leaf destined for block addr in the next
// free frame of the current group.
func (l *Loader) start(addr int64) {
	l.buf = l.cur[len(l.addrs)].Buf
	bufInitNode(l.buf, true)
	l.addrs = append(l.addrs, addr)
	l.count = 0
}

// seal completes the leaf being packed with its forward sibling pointer
// (next < 0 for the last leaf) and dispatches the group once it is full.
func (l *Loader) seal(next int64) error {
	l.leaves = append(l.leaves, levelEntry{firstKey: l.first, addr: l.addrs[len(l.addrs)-1]})
	bufSetCount(l.buf, l.count)
	if next >= 0 {
		bufSetNextLeaf(l.buf, next)
	}
	if len(l.addrs) == len(l.cur) {
		return l.dispatch()
	}
	return nil
}

// nextLeaf seals the full leaf and starts its successor.
func (l *Loader) nextLeaf() error {
	next := l.alloc()
	if err := l.seal(next); err != nil {
		return err
	}
	l.start(next)
	return nil
}

// dispatch waits out the previous leaf batch, writes the current group's
// sealed leaves through Volume.BatchWriteAsync, and swaps the double
// buffers, so the loader refills the other group while the batch's
// reservation runs.
func (l *Loader) dispatch() error {
	l.t.vol.Wait(l.due)
	for i := range l.addrs {
		l.bufs[i] = l.cur[i].Buf
	}
	due, err := l.t.vol.BatchWriteAsync(l.addrs, l.bufs[:len(l.addrs)])
	l.due = due
	l.cur, l.flushing = l.flushing, l.cur
	l.addrs = l.addrs[:0]
	return err
}

// Close seals the last leaf — an empty input leaves it as the empty root —
// and builds the internal levels until a single node remains. On error the
// load is aborted. Closing a closed loader does nothing; closing an aborted
// one reports stream.ErrClosed.
func (l *Loader) Close() error {
	if l.aborted {
		return stream.ErrClosed
	}
	if l.done {
		return nil
	}
	l.done = true
	err := l.build()
	if err != nil {
		l.Abort()
	}
	return err
}

// build is Close's construction.
func (l *Loader) build() error {
	if err := l.seal(-1); err != nil {
		return err
	}
	// Send the tail group on its way; the internal levels build while it is
	// in flight, and the wait below lands it before the tree is handed out.
	if len(l.addrs) > 0 {
		if err := l.dispatch(); err != nil {
			return err
		}
	}
	t := l.t
	level := l.leaves
	height := 1
	for len(level) > 1 {
		var next []levelEntry
		for i := 0; i < len(level); i += t.keyCap + 1 {
			group := level[i:min(i+t.keyCap+1, len(level))]
			node, err := t.newNode(false)
			if err != nil {
				return err
			}
			l.nodes = append(l.nodes, node.Addr())
			for j, e := range group {
				t.setChild(node, j, e.addr)
				if j > 0 {
					setIntKey(node, j-1, e.firstKey)
				}
			}
			setCount(node, len(group)-1)
			next = append(next, levelEntry{firstKey: group[0].firstKey, addr: node.Addr()})
			t.cache.Unpin(node)
		}
		level = next
		height++
	}
	t.vol.Wait(l.due)
	pdm.ReleaseAll(l.frames)
	l.frames = nil
	t.root = level[0].addr
	t.height = height
	return nil
}

// Tree returns the tree a successful Close built, or nil before then and
// after an Abort.
func (l *Loader) Tree() *Tree {
	if !l.done || l.aborted {
		return nil
	}
	return l.t
}

// Abort discards the load and everything it built (see Loader). Aborting
// twice does nothing.
func (l *Loader) Abort() {
	if l.aborted {
		return
	}
	l.done, l.aborted = true, true
	// The in-flight group's frames stay busy until its reservation runs
	// out; only then may the pool hand them to someone else.
	l.t.vol.Wait(l.due)
	pdm.ReleaseAll(l.frames)
	l.frames = nil
	// Every cached page is a node of the abandoned tree: discard them
	// unwritten, then free the blocks.
	l.t.cache.Discard()
	for _, a := range l.nodes {
		l.t.vol.Free(a)
	}
}

// A Loader is the sink a sort emits into.
var _ stream.Sink[record.Record] = (*Loader)(nil)
