// Sort→consumer pipelining over durable block groups.
//
// A producer that writes a file strictly in order — the distribution sort's
// final output writer — knows, flush by flush, which prefix of the file is
// already safely on the volume. TailPipe carries exactly that knowledge to
// a concurrent consumer: each durable block group's addresses travel
// through a bounded channel, and TailSource reads the blocks back with its
// own frames, decoding records while the producer is still writing later
// groups. Only addresses cross the channel — the record bytes stay on the
// volume and are re-read by the consumer, charged as ordinary block reads —
// so the pipe adds overlap, not an uncounted memory side-channel: the
// consumer's reads are the same BatchRead calls, over the same group
// boundaries, it would have issued scanning the finished file afterwards.
//
// The channel bound is backpressure: a producer more than depth groups
// ahead of its consumer blocks in Notify until the consumer catches up, and
// a consumer whose producer has gone away (CloseSend) or failed sees the
// producer's error after draining the queued groups. Closing the source
// releases any blocked producer with ErrPipeClosed, which unwinds the
// producer through its normal error paths.
package stream

import (
	"errors"
	"fmt"
	"sync"

	"em/internal/pdm"
	"em/internal/record"
)

// ErrPipeClosed reports a producer notifying a pipeline whose consumer has
// gone away.
var ErrPipeClosed = errors.New("stream: tail pipe closed by consumer")

// TailChunk is one durable block group announced through a TailPipe: the
// group's block addresses in file order and the records they carry.
type TailChunk struct {
	Addrs []int64
	Recs  int
}

// TailPipe connects a writer's flush notifications to a TailSource. Create
// one per pipeline; the producer side is Notify (a FlushFunc) plus a final
// CloseSend, the consumer side is NewTailSource.
type TailPipe struct {
	ch   chan TailChunk
	done chan struct{}

	mu         sync.Mutex
	err        error
	sendClosed bool
	doneOnce   sync.Once
}

// NewTailPipe creates a pipe buffering at most depth block groups; depth
// below 1 is raised to 1. The bound is distance, not memory: chunks hold
// addresses only.
func NewTailPipe(depth int) *TailPipe {
	if depth < 1 {
		depth = 1
	}
	return &TailPipe{ch: make(chan TailChunk, depth), done: make(chan struct{})}
}

// Notify is the producer half, shaped as a FlushFunc for OpenSinkNotify. It
// blocks while the pipe is full and returns ErrPipeClosed once the consumer
// has closed its end, so an abandoned producer unwinds instead of stalling.
func (p *TailPipe) Notify(addrs []int64, recs int) error {
	if recs == 0 {
		return nil
	}
	select {
	case p.ch <- TailChunk{Addrs: addrs, Recs: recs}:
		return nil
	case <-p.done:
		return ErrPipeClosed
	}
}

// CloseSend marks the producer finished. A non-nil err is delivered to the
// consumer after the chunks already queued — the consumer sees every group
// that became durable, then the failure. CloseSend is idempotent; only the
// first call's error is kept.
func (p *TailPipe) CloseSend(err error) {
	p.mu.Lock()
	if !p.sendClosed {
		p.sendClosed = true
		p.err = err
		close(p.ch)
	}
	p.mu.Unlock()
}

// sendErr returns the error CloseSend recorded, if any.
func (p *TailPipe) sendErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// closeRecv signals that the consumer is gone, releasing blocked producers.
func (p *TailPipe) closeRecv() { p.doneOnce.Do(func() { close(p.done) }) }

// TailSource reads a file's records through a TailPipe while the file is
// still being written: each chunk received is fetched as one BatchRead —
// the same call, over the same group boundaries, a striped reader of the
// writer's width would issue over the finished file, so counted I/Os are
// identical to reading after the fact. With async read-ahead it keeps the
// next already-announced chunk in flight behind the one being consumed
// (2×width frames, the trade a Reader opened ahead makes); it never blocks
// waiting for a chunk just to prefetch it, so read-ahead rides exactly as
// far ahead as the producer has durably written.
type TailSource[T any] struct {
	vol   *pdm.Volume
	codec record.Codec[T]
	pipe  *TailPipe
	per   int

	frames []*pdm.Frame // width, or 2*width with read-ahead
	cur    []*pdm.Frame // group being consumed
	next   []*pdm.Frame // read-ahead group; nil when synchronous
	join   func() error // in-flight read-ahead; nil when none
	ahead  TailChunk    // chunk the in-flight read covers

	width  int
	avail  int // records decoded so far in cur
	pos    int
	closed bool
}

// NewTailSource creates the consumer half of a pipe over vol. width must be
// at least the producing writer's width — chunks are read one BatchRead
// each. async adds a second frame group for opportunistic read-ahead.
func NewTailSource[T any](vol *pdm.Volume, codec record.Codec[T], pool *pdm.Pool, pipe *TailPipe, width int, async bool) (*TailSource[T], error) {
	if width < 1 {
		return nil, fmt.Errorf("stream: tail source width must be >= 1, got %d", width)
	}
	n := width
	if async {
		n = 2 * width
	}
	frames, err := pool.AllocN(n)
	if err != nil {
		return nil, err
	}
	r := &TailSource[T]{
		vol:    vol,
		codec:  codec,
		pipe:   pipe,
		per:    vol.BlockBytes() / codec.Size(),
		frames: frames,
		cur:    frames[:width],
		width:  width,
	}
	if async {
		r.next = frames[width:]
	}
	return r, nil
}

// read fetches one chunk into the given frame group synchronously.
func (r *TailSource[T]) read(c TailChunk, group []*pdm.Frame) error {
	bufs := make([][]byte, len(c.Addrs))
	for i := range bufs {
		bufs[i] = group[i].Buf
	}
	return r.vol.BatchRead(c.Addrs, bufs)
}

// launch dispatches an async read of the next chunk, if one is already
// durable, into the spare group.
func (r *TailSource[T]) launch() {
	select {
	case c, ok := <-r.pipe.ch:
		if !ok || c.Recs == 0 {
			// Channel closed (or an empty sentinel): nothing to prefetch;
			// fill rediscovers the close on its next receive.
			return
		}
		if len(c.Addrs) > r.width {
			// Oversized chunk: surface the error at join time.
			r.ahead = c
			r.join = func() error {
				return fmt.Errorf("stream: tail chunk of %d blocks exceeds source width %d", len(c.Addrs), r.width)
			}
			return
		}
		bufs := make([][]byte, len(c.Addrs))
		for i := range bufs {
			bufs[i] = r.next[i].Buf
		}
		r.ahead = c
		r.join = r.vol.BatchReadAsync(c.Addrs, bufs)
	default:
	}
}

// fill makes the next chunk's records available in cur: the in-flight
// read-ahead if there is one, otherwise a blocking receive. ok is false
// when the producer has finished and every chunk is consumed.
func (r *TailSource[T]) fill() (ok bool, err error) {
	if r.join != nil {
		err := r.join()
		r.join = nil
		if err != nil {
			return false, err
		}
		r.cur, r.next = r.next, r.cur
		r.avail, r.pos = r.ahead.Recs, 0
		r.launch()
		return true, nil
	}
	c, chOk := <-r.pipe.ch
	if !chOk {
		return false, r.pipe.sendErr()
	}
	if len(c.Addrs) > r.width {
		return false, fmt.Errorf("stream: tail chunk of %d blocks exceeds source width %d", len(c.Addrs), r.width)
	}
	if err := r.read(c, r.cur); err != nil {
		return false, err
	}
	r.avail, r.pos = c.Recs, 0
	if r.next != nil {
		r.launch()
	}
	return true, nil
}

// Next returns the next record; ok is false once the producer has closed
// the pipe and every durable record has been returned. If the producer
// failed, the error arrives here after the records that preceded it.
func (r *TailSource[T]) Next() (v T, ok bool, err error) {
	if r.closed {
		return v, false, ErrClosed
	}
	for r.pos == r.avail {
		ok, err := r.fill()
		if err != nil {
			return v, false, err
		}
		if !ok {
			return v, false, nil
		}
	}
	frame := r.cur[r.pos/r.per]
	off := (r.pos % r.per) * r.codec.Size()
	v = r.codec.Decode(frame.Buf[off:])
	r.pos++
	return v, true, nil
}

// Close releases the source's frames and its end of the pipe, unblocking a
// producer mid-Notify. Safe to call whether or not the stream was drained.
func (r *TailSource[T]) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.pipe.closeRecv()
	if r.join != nil {
		r.join() // the engine reads into our frames until the join returns
		r.join = nil
	}
	pdm.ReleaseAll(r.frames)
	r.frames = nil
}

// TailSource is a Source like any other reader.
var _ Source[int] = (*TailSource[int])(nil)
