package btree

import (
	"errors"

	"em/internal/cache"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// ErrUnsortedInput reports a bulk-load stream that is not strictly
// increasing by key.
var ErrUnsortedInput = errors.New("btree: bulk load input not strictly sorted by key")

// BulkLoadOptions tunes the bulk loader's input and leaf-output streams.
type BulkLoadOptions struct {
	// Width is the striping width of the input reader and of the
	// write-behind leaf batches; set it to the volume's disk count D to move
	// D blocks per parallel batch. Zero means 1.
	Width int
	// Async opens a file input's reader ahead (forecasting read-ahead): the
	// next block group of the sorted run stays in flight while the loader
	// packs leaves and writes nodes back — the survey's read-ahead applied
	// to index construction. The reader then holds 2×Width pool frames
	// instead of Width; counted I/Os are identical to the on-demand
	// reader's at equal width. It has no effect on BulkLoadFrom, whose
	// caller owns the input stream.
	Async bool
	// WriteBehind routes the leaf level around the pinning cache: leaves
	// are written exactly once and never revisited, so they are packed
	// directly in pool frames and flushed Width at a time through
	// Volume.BatchWriteAsync while the next group is packed. This costs
	// 2×Width extra pool frames (the double buffer) but gives node
	// write-back the same D-disk parallelism the input reads already have;
	// counted read and write I/Os are identical to the cache path's.
	// Internal levels — at most N/B nodes — stay on the cache path.
	WriteBehind bool
}

func (o *BulkLoadOptions) width() int {
	if o == nil || o.Width < 1 {
		return 1
	}
	return o.Width
}

func (o *BulkLoadOptions) writeBehind() bool { return o != nil && o.WriteBehind }

// openReader opens the sorted input according to opts: striped when
// synchronous, forecasting when async.
func (o *BulkLoadOptions) openReader(sorted *stream.File[record.Record], pool *pdm.Pool) (stream.Source[record.Record], error) {
	return stream.OpenSource(sorted, pool, o.width(), o != nil && o.Async)
}

// BulkLoad builds a tree bottom-up from a file of records sorted strictly by
// key, opening the input stream according to opts (see BulkLoadFrom for the
// construction itself). A nil opts reads the input with a synchronous
// width-1 reader and retires leaves through the cache.
func BulkLoad(vol *pdm.Volume, pool *pdm.Pool, cacheFrames int, sorted *stream.File[record.Record], opts *BulkLoadOptions) (*Tree, error) {
	r, err := opts.openReader(sorted, pool)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return BulkLoadFrom(vol, pool, cacheFrames, r, opts)
}

// BulkLoadFrom builds a tree bottom-up from any stream of records sorted
// strictly by key — a file reader, or a pipeline source fed by a sort still
// in progress. Leaves are filled left to right at fill-factor occupancy,
// then each internal level is built over the previous one; the whole
// construction costs Θ(N/B) I/Os on top of the sort that produced the input
// — the survey's Sort(N) index-construction bound, versus Θ(N·log_B N) for
// repeated insertion (experiment T9).
//
// Each leaf's successor block is allocated the moment the leaf overflows,
// so the sibling pointer is threaded forward into the leaf before it is
// sealed — no leaf is ever re-fetched to patch its pointer. With
// opts.WriteBehind the sealed leaves bypass the cache entirely and stream
// to the disks in Width-block batches behind the loader.
//
// On any error — unsorted input, a failed read or write, an exhausted pool
// — every node allocated by the load is freed, every cache and batch frame
// is returned, any in-flight leaf batch is joined (never abandoned
// mid-write), and no page stays pinned, so the caller's pool is exactly as
// it was. BulkLoadFrom does not close src.
func BulkLoadFrom(vol *pdm.Volume, pool *pdm.Pool, cacheFrames int, src stream.Source[record.Record], opts *BulkLoadOptions) (*Tree, error) {
	t, err := New(vol, pool, cacheFrames)
	if err != nil {
		return nil, err
	}
	// New's placeholder root would cost one spurious block write whenever
	// the cache evicted it mid-load; drop and free it now so every write the
	// load performs is a node of the final tree, on both leaf paths.
	t.cache.Drop(t.root)
	t.vol.Free(t.root)

	// Failure cleanup: join any in-flight leaf batch, unpin whatever node
	// was mid-construction, then drop and free every block the load
	// allocated. That leaves the cache empty, so Close returns its frames
	// without flushing garbage nodes to the volume.
	done := false
	var pinned *cache.Page
	var nodes []int64
	var wb *leafBatch
	defer func() {
		if done {
			return
		}
		if wb != nil {
			wb.abort()
		}
		if pinned != nil {
			t.cache.Unpin(pinned)
		}
		for _, a := range nodes {
			t.cache.Drop(a)
			t.vol.Free(a)
		}
		t.cache.Close()
	}()
	alloc := func() int64 {
		a := t.vol.Alloc(1)
		nodes = append(nodes, a)
		return a
	}

	if opts.writeBehind() {
		wb, err = newLeafBatch(vol, pool, opts.width())
		if err != nil {
			return nil, err
		}
	}
	// startLeaf, putLeaf and finishLeaf abstract over the two leaf paths:
	// the pinning cache (leaves retire through the buffer manager, written
	// on eviction or Close) and the write-behind batch.
	var cur *cache.Page
	startLeaf := func(addr int64) error {
		if wb != nil {
			wb.start(addr)
			return nil
		}
		p, err := t.newNodeAt(addr, true)
		if err != nil {
			return err
		}
		cur, pinned = p, p
		return nil
	}
	putLeaf := func(i int, k, v uint64) {
		if wb != nil {
			wb.put(i, k, v)
			return
		}
		setLeafKV(cur, i, k, v)
	}
	finishLeaf := func(count int, next int64) error {
		if wb != nil {
			return wb.finish(count, next)
		}
		setCount(cur, count)
		if next >= 0 {
			setNextLeaf(cur, next)
		}
		t.cache.Unpin(cur)
		cur, pinned = nil, nil
		return nil
	}

	type levelEntry struct {
		firstKey uint64
		addr     int64
	}
	var leaves []levelEntry

	// Build the leaf level.
	var prevKey, firstKey uint64
	havePrev := false
	curAddr := alloc()
	if err := startLeaf(curAddr); err != nil {
		return nil, err
	}
	curCount := 0
	for {
		rec, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if havePrev && rec.Key <= prevKey {
			return nil, ErrUnsortedInput
		}
		prevKey, havePrev = rec.Key, true
		if curCount == t.leafCap {
			next := alloc()
			leaves = append(leaves, levelEntry{firstKey: firstKey, addr: curAddr})
			if err := finishLeaf(curCount, next); err != nil {
				return nil, err
			}
			curAddr = next
			if err := startLeaf(curAddr); err != nil {
				return nil, err
			}
			curCount = 0
		}
		if curCount == 0 {
			firstKey = rec.Key
		}
		putLeaf(curCount, rec.Key, rec.Val)
		curCount++
		t.n++
	}
	// The final leaf keeps next = -1 from its initialisation; an empty
	// input leaves the sole allocated leaf as the empty root.
	leaves = append(leaves, levelEntry{firstKey: firstKey, addr: curAddr})
	if err := finishLeaf(curCount, -1); err != nil {
		return nil, err
	}
	if wb != nil {
		// Send the tail group on its way; the internal levels build while
		// it is in flight, and close joins before the tree is handed back.
		if err := wb.flush(); err != nil {
			return nil, err
		}
	}

	newNode := func(leaf bool) (*cache.Page, error) {
		p, err := t.newNode(leaf)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, p.Addr())
		return p, nil
	}

	// Build internal levels until a single node remains.
	level := leaves
	height := 1
	for len(level) > 1 {
		var next []levelEntry
		i := 0
		for i < len(level) {
			hi := i + t.keyCap + 1 // fanout children per node
			if hi > len(level) {
				hi = len(level)
			}
			node, err := newNode(false)
			if err != nil {
				return nil, err
			}
			pinned = node
			group := level[i:hi]
			for j, e := range group {
				t.setChild(node, j, e.addr)
				if j > 0 {
					setIntKey(node, j-1, e.firstKey)
				}
			}
			setCount(node, len(group)-1)
			next = append(next, levelEntry{firstKey: group[0].firstKey, addr: node.Addr()})
			t.cache.Unpin(node)
			pinned = nil
			i = hi
		}
		level = next
		height++
	}
	if wb != nil {
		if err := wb.close(); err != nil {
			return nil, err
		}
		wb = nil
	}
	t.root = level[0].addr
	t.height = height
	done = true
	return t, nil
}
