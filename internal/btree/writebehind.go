package btree

import (
	"em/internal/pdm"
)

// leafBatch is the bulk loader's write-behind leaf path. Leaves are written
// exactly once and never revisited, so they need none of the buffer
// manager's machinery: each leaf is packed directly into a pool frame, and
// every width completed leaves are flushed as one parallel batch through
// Volume.BatchWriteAsync while the loader packs the next group — the
// survey's full D-disk write parallelism applied to index construction.
//
// The batch holds 2×width pool frames (one group being packed, one in
// flight, the same double-buffer charge a stream.Writer opened behind
// levies). Each leaf still costs exactly one block write, so counted write
// I/Os are identical to the cache path's; only the batching — and therefore
// the parallel-step count and the wall clock — changes.
type leafBatch struct {
	vol      *pdm.Volume
	frames   []*pdm.Frame // 2*width; nil after close/abort
	cur      []*pdm.Frame // group being packed
	flushing []*pdm.Frame // group in flight
	addrs    []int64      // block addresses of cur's completed+current leaves
	n        int          // completed leaves in cur
	width    int
	join     func() error // in-flight batch write; nil when none
}

func newLeafBatch(vol *pdm.Volume, pool *pdm.Pool, width int) (*leafBatch, error) {
	frames, err := pool.AllocN(2 * width)
	if err != nil {
		return nil, err
	}
	return &leafBatch{
		vol:      vol,
		frames:   frames,
		cur:      frames[:width],
		flushing: frames[width:],
		addrs:    make([]int64, 0, width),
		width:    width,
	}, nil
}

// start begins packing a new leaf destined for block addr in the next free
// frame of the current group, returning that frame's block image.
func (w *leafBatch) start(addr int64) []byte {
	buf := w.cur[w.n].Buf
	bufInitNode(buf, true)
	w.addrs = append(w.addrs, addr)
	return buf
}

// finish completes the current leaf, whose image the loader has sealed with
// its count and forward sibling pointer, dispatching the group once it is
// full. The successor's address is known before the leaf is sealed — the
// loader pre-allocates it — so no leaf is ever revisited to patch its
// pointer, which is what lets the whole level stream out write-behind.
func (w *leafBatch) finish() error {
	w.n++
	if w.n == w.width {
		return w.dispatch()
	}
	return nil
}

// dispatch joins the previous in-flight batch, hands the current group to
// the volume's async write engine, and swaps the double buffers. Addresses
// and buffers are copied out before the swap, so the engine owns them until
// the next join while the loader refills the other group.
func (w *leafBatch) dispatch() error {
	if err := w.joinFlush(); err != nil {
		return err
	}
	addrs := make([]int64, w.n)
	bufs := make([][]byte, w.n)
	for i := 0; i < w.n; i++ {
		addrs[i] = w.addrs[i]
		bufs[i] = w.cur[i].Buf
	}
	w.join = w.vol.BatchWriteAsync(addrs, bufs)
	w.cur, w.flushing = w.flushing, w.cur
	w.addrs = w.addrs[:0]
	w.n = 0
	return nil
}

// flush dispatches any completed leaves still buffered. The write stays in
// flight — close joins it — so the loader can build internal levels while
// the last leaf group is still travelling to the disks.
func (w *leafBatch) flush() error {
	if w.n > 0 {
		return w.dispatch()
	}
	return nil
}

// joinFlush waits for the in-flight batch, if any, and reports its error.
func (w *leafBatch) joinFlush() error {
	if w.join == nil {
		return nil
	}
	err := w.join()
	w.join = nil
	return err
}

// close joins the in-flight batch and releases the frames. Every completed
// leaf is durable once close returns nil.
func (w *leafBatch) close() error {
	err := w.joinFlush()
	pdm.ReleaseAll(w.frames)
	w.frames = nil
	return err
}

// abort is the failure-path close: it joins any in-flight write — the
// engine scribbles into our frames until the join returns, and a dispatched
// write must complete, not vanish — then returns the frames. Errors are
// ignored; the caller is already unwinding.
func (w *leafBatch) abort() {
	if w.join != nil {
		w.join()
		w.join = nil
	}
	if w.frames != nil {
		pdm.ReleaseAll(w.frames)
		w.frames = nil
	}
}
