// Package stream provides block-oriented sequential files, readers, and
// writers over a pdm.Volume.
//
// A File is an ordered sequence of records packed into whole blocks. Readers
// and writers move data strictly in block units and draw their buffers from
// a pdm.Pool, so every transfer is visible in the volume's I/O counters and
// every buffer counts against the memory budget M.
//
// Readers and writers may be striped: a width-w reader fetches w consecutive
// blocks as one parallel batch, which is exactly the disk-striping technique
// the survey analyses (Scan speeds up by a factor of D; Sort pays a reduced
// merge arity).
//
// There is one Reader and one Writer. Each holds one group of w frames, or
// two when opened ahead (reader) or behind (writer) — see prefetch.go. The
// depth changes only when a batch is issued, never which batches are: both
// depths make the same BatchRead/BatchWrite calls, so every counter agrees.
package stream

import (
	"errors"
	"fmt"
	"time"

	"em/internal/pdm"
	"em/internal/record"
)

// ErrClosed reports use of a closed reader or writer.
var ErrClosed = errors.New("stream: closed")

// Source is the record-producing side of a stream — a Reader at either
// depth, a patch of sources, or an index scanner — so algorithms consume
// records without knowing whether the next block group is fetched on demand
// or already in flight.
type Source[T any] interface {
	Next() (v T, ok bool, err error)
	Close()
}

// Sink is the record-consuming side of a stream: a Writer at either depth,
// or a consumer that never writes a file, such as the B-tree bulk loader.
type Sink[T any] interface {
	Append(v T) error
	Close() error
}

// OpenSource opens a width-w reader over f holding depth groups of width
// frames: depth 1 fetches on demand, depth 2 keeps the next group in
// flight. The sort and index layers open every input through it, at the
// depth their plan has frames for.
func OpenSource[T any](f *File[T], pool *pdm.Pool, width, depth int) (Source[T], error) {
	return newReader(f, pool, width, depth == 2)
}

// OpenSink opens a width-w writer appending to f holding depth groups of
// width frames: depth 1 flushes on demand, depth 2 writes behind.
func OpenSink[T any](f *File[T], pool *pdm.Pool, width, depth int) (Sink[T], error) {
	return newWriter(f, pool, width, depth == 2)
}

// File is a sequence of N records of type T stored in whole blocks on a
// volume. The block list is catalog metadata (held in memory, as a real
// system holds extent maps); record data lives only on the volume.
type File[T any] struct {
	vol    *pdm.Volume
	codec  record.Codec[T]
	blocks []int64
	n      int64
}

// NewFile creates an empty file on vol.
func NewFile[T any](vol *pdm.Volume, codec record.Codec[T]) *File[T] {
	return &File[T]{vol: vol, codec: codec}
}

// Vol returns the underlying volume.
func (f *File[T]) Vol() *pdm.Volume { return f.vol }

// Codec returns the file's record codec.
func (f *File[T]) Codec() record.Codec[T] { return f.codec }

// Len returns the number of records in the file.
func (f *File[T]) Len() int64 { return f.n }

// Blocks returns the number of blocks occupied.
func (f *File[T]) Blocks() int { return len(f.blocks) }

// PerBlock returns the number of records that fit in one block (the model's
// B, in records).
func (f *File[T]) PerBlock() int { return f.vol.BlockBytes() / f.codec.Size() }

// Release returns every block of the file to the volume's free list and
// empties the file.
func (f *File[T]) Release() {
	for _, b := range f.blocks {
		f.vol.Free(b)
	}
	f.blocks = f.blocks[:0]
	f.n = 0
}

// reloadTail prepares a writer for appending to a file whose last block is
// partially filled: it reads that block into buf, removes it from the block
// list, frees its address, and returns the number of records it held, so
// the writer can keep packing it and records stay contiguous for readers.
// A block-aligned file returns 0 and touches nothing.
func (f *File[T]) reloadTail(buf []byte) (int, error) {
	tail := int(f.n % int64(f.PerBlock()))
	if tail == 0 {
		return 0, nil
	}
	last := f.blocks[len(f.blocks)-1]
	if err := f.vol.ReadBlock(last, buf); err != nil {
		return 0, err
	}
	f.blocks = f.blocks[:len(f.blocks)-1]
	f.vol.Free(last)
	return tail, nil
}

// allocExtent reserves n fresh contiguous blocks, records them in the
// file's block list in order, and returns their addresses, a view of that
// list. Addresses are taken in file order on the caller's goroutine, so a
// writer's layout does not depend on its depth.
func (f *File[T]) allocExtent(n int) []int64 {
	base := f.vol.Alloc(n)
	for i := 0; i < n; i++ {
		f.blocks = append(f.blocks, base+int64(i))
	}
	return f.blocks[len(f.blocks)-n:]
}

// groupBufs fills bufs with the buffers of the first n frames and returns
// that prefix: the batch slice a stream reuses for every group it moves.
func groupBufs(bufs [][]byte, frames []*pdm.Frame, n int) [][]byte {
	for i, fr := range frames[:n] {
		bufs[i] = fr.Buf
	}
	return bufs[:n]
}

// frameCount returns the frames a width-w stream holds: one group on
// demand, two when it reads ahead or writes behind.
func frameCount(width int, overlap bool) int {
	if overlap {
		return 2 * width
	}
	return width
}

// Writer appends records to a File block by block. A width-w writer buffers
// w blocks and flushes them as one parallel batch. Opened behind, it holds
// a second group and leaves each flush in flight while the caller fills the
// other; on demand the two groups are one and each flush is waited at once.
type Writer[T any] struct {
	f        *File[T]
	frames   []*pdm.Frame // every frame held: one group, or two behind
	cur      []*pdm.Frame // group being filled
	flushing []*pdm.Frame // group last dispatched; cur itself on demand
	bufs     [][]byte     // batch buffers, reused by every flush
	due      time.Time    // deadline of the last flush
	width    int
	filled   int // records buffered in cur
	closed   bool
}

// NewWriter creates a width-1 writer (one buffer frame).
func NewWriter[T any](f *File[T], pool *pdm.Pool) (*Writer[T], error) {
	return newWriter(f, pool, 1, false)
}

// NewStripedWriter creates a writer that buffers width blocks and writes
// them as single parallel batches. width is typically the volume's disk
// count D.
func NewStripedWriter[T any](f *File[T], pool *pdm.Pool, width int) (*Writer[T], error) {
	return newWriter(f, pool, width, false)
}

// newWriter opens a writer, reloading a partial tail block into cur.
func newWriter[T any](f *File[T], pool *pdm.Pool, width int, behind bool) (*Writer[T], error) {
	if width < 1 {
		return nil, fmt.Errorf("stream: writer width must be >= 1, got %d", width)
	}
	frames, err := pool.AllocN(frameCount(width, behind))
	if err != nil {
		return nil, err
	}
	tail, err := f.reloadTail(frames[0].Buf)
	if err != nil {
		pdm.ReleaseAll(frames)
		return nil, err
	}
	return &Writer[T]{f: f, frames: frames, cur: frames[:width],
		flushing: frames[len(frames)-width:], bufs: make([][]byte, width),
		width: width, filled: tail}, nil
}

// Append adds one record to the file.
func (w *Writer[T]) Append(v T) error {
	if w.closed {
		return ErrClosed
	}
	per := w.f.PerBlock()
	if w.filled == per*w.width {
		if err := w.flush(w.width); err != nil {
			return err
		}
	}
	frame := w.cur[w.filled/per]
	off := (w.filled % per) * w.f.codec.Size()
	w.f.codec.Encode(frame.Buf[off:], v)
	w.filled++
	w.f.n++
	return nil
}

// flush waits out the previous flush, then writes the first n frames of cur
// to freshly allocated blocks and swaps the groups. Behind, the write stays
// in flight until the next flush or Close; on demand it is waited here,
// since the swapped-in group is the same frames.
func (w *Writer[T]) flush(n int) error {
	w.f.vol.Wait(w.due)
	if n == 0 {
		return nil
	}
	addrs := w.f.allocExtent(n)
	due, err := w.f.vol.BatchWriteAsync(addrs, groupBufs(w.bufs, w.cur, n))
	w.cur, w.flushing = w.flushing, w.cur
	w.filled, w.due = 0, due
	if len(w.frames) == w.width {
		w.f.vol.Wait(w.due)
	}
	return err
}

// Close flushes any partial buffer, waits out the last flush, and releases
// the writer's frames. The final block may be partially filled; File.Len
// records the true count.
func (w *Writer[T]) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	per := w.f.PerBlock()
	err := w.flush((w.filled + per - 1) / per)
	w.f.vol.Wait(w.due)
	pdm.ReleaseAll(w.frames)
	w.frames, w.cur, w.flushing = nil, nil, nil
	return err
}

// Reader iterates a File's records in order, fetching w blocks per parallel
// batch. Opened ahead, it holds a second group and keeps the next batch in
// flight while the caller consumes the current one; on demand the two
// groups are one and each batch is dispatched when the last is used up.
type Reader[T any] struct {
	f        *File[T]
	frames   []*pdm.Frame // every frame held: one group, or two ahead
	cur      []*pdm.Frame // group being consumed
	next     []*pdm.Frame // group being fetched; cur itself on demand
	bufs     [][]byte     // batch buffers, reused by every fetch
	due      time.Time    // deadline of the in-flight fetch
	fetchErr error        // the in-flight fetch's error, kept for fill
	inFlight int          // blocks the in-flight fetch covers; 0 when none
	width    int
	block    int   // index of next block to fetch
	avail    int   // records available in cur
	pos      int   // next record offset within cur
	read     int64 // records returned so far
	closed   bool
}

// NewReader creates a width-1 reader over f.
func NewReader[T any](f *File[T], pool *pdm.Pool) (*Reader[T], error) {
	return newReader(f, pool, 1, false)
}

// NewStripedReader creates a reader that fetches width blocks per parallel
// batch.
func NewStripedReader[T any](f *File[T], pool *pdm.Pool, width int) (*Reader[T], error) {
	return newReader(f, pool, width, false)
}

// newReader opens a reader; only one opened ahead dispatches a fetch here,
// so an on-demand reader closed early reads nothing it did not return.
func newReader[T any](f *File[T], pool *pdm.Pool, width int, ahead bool) (*Reader[T], error) {
	if width < 1 {
		return nil, fmt.Errorf("stream: reader width must be >= 1, got %d", width)
	}
	frames, err := pool.AllocN(frameCount(width, ahead))
	if err != nil {
		return nil, err
	}
	r := &Reader[T]{f: f, frames: frames, cur: frames[:width],
		next: frames[len(frames)-width:], bufs: make([][]byte, width), width: width}
	if ahead {
		r.launch()
	}
	return r, nil
}

// Next returns the next record. ok is false at end of file.
func (r *Reader[T]) Next() (v T, ok bool, err error) {
	if r.closed {
		return v, false, ErrClosed
	}
	if r.read >= r.f.n {
		return v, false, nil
	}
	if r.pos == r.avail {
		if err := r.fill(); err != nil {
			return v, false, err
		}
	}
	per := r.f.PerBlock()
	frame := r.cur[r.pos/per]
	off := (r.pos % per) * r.f.codec.Size()
	v = r.f.codec.Decode(frame.Buf[off:])
	r.pos++
	r.read++
	return v, true, nil
}

// launch dispatches the next block group's fetch into r.next, if any blocks
// remain. It must only be called when no fetch is in flight. The dispatch
// happens on the caller's goroutine, so the disks' service-time reservations
// begin immediately; only the Wait in fill can block. The fetch's error is
// kept for the fill that needs the group, not reported early.
func (r *Reader[T]) launch() {
	want := min(r.width, len(r.f.blocks)-r.block)
	if want <= 0 {
		return
	}
	addrs := r.f.blocks[r.block : r.block+want]
	r.block += want
	r.inFlight = want
	r.due, r.fetchErr = r.f.vol.BatchReadAsync(addrs, groupBufs(r.bufs, r.next, want))
}

// fill waits out the next group's fetch — dispatching it first when none is
// in flight — and promotes it to cur; a reader opened ahead then launches
// the following group at once. A failed fetch is retried by the next call.
func (r *Reader[T]) fill() error {
	if r.inFlight == 0 {
		r.launch()
	}
	if r.inFlight == 0 {
		return fmt.Errorf("stream: read past end of file blocks")
	}
	r.f.vol.Wait(r.due)
	n, err := r.inFlight, r.fetchErr
	r.inFlight, r.fetchErr = 0, nil
	if err != nil {
		r.block -= n
		return err
	}
	r.cur, r.next = r.next, r.cur
	r.avail = n * r.f.PerBlock()
	r.pos = 0
	if len(r.frames) > r.width {
		r.launch()
	}
	return nil
}

// Close releases the reader's frames. An in-flight fetch needs no wait:
// its bytes moved at dispatch, and its reservation stays booked on the
// disks' timelines.
func (r *Reader[T]) Close() {
	if r.closed {
		return
	}
	r.closed = true
	pdm.ReleaseAll(r.frames)
	r.frames, r.cur, r.next = nil, nil, nil
}

// Drain feeds every remaining record of src to fn, stopping on the first
// error. It does not close src.
func Drain[T any](src Source[T], fn func(T) error) error {
	for {
		v, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(v); err != nil {
			return err
		}
	}
}

// ForEach streams every record of f through fn using a width-1 reader.
func ForEach[T any](f *File[T], pool *pdm.Pool, fn func(T) error) error {
	r, err := NewReader(f, pool)
	if err != nil {
		return err
	}
	defer r.Close()
	return Drain[T](r, fn)
}

// FromSlice writes vs into a fresh file on vol, charging the usual write
// I/Os. It is the standard way tests and examples materialise inputs.
func FromSlice[T any](vol *pdm.Volume, pool *pdm.Pool, codec record.Codec[T], vs []T) (*File[T], error) {
	f := NewFile[T](vol, codec)
	w, err := NewWriter(f, pool)
	if err != nil {
		return nil, err
	}
	for _, v := range vs {
		if err := w.Append(v); err != nil {
			w.Close()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return f, nil
}

// ToSlice reads the whole file into memory, charging the usual read I/Os.
// Intended for tests and small outputs only.
func ToSlice[T any](f *File[T], pool *pdm.Pool) ([]T, error) {
	out := make([]T, 0, f.Len())
	err := ForEach(f, pool, func(v T) error {
		out = append(out, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadRecordAt fetches record index i of f with a single block read, using
// one temporary frame. It is deliberately expensive — one I/O per record —
// and exists to implement the survey's naive baselines faithfully.
func ReadRecordAt[T any](f *File[T], pool *pdm.Pool, i int64) (T, error) {
	var zero T
	if i < 0 || i >= f.n {
		return zero, fmt.Errorf("stream: record index %d out of range [0,%d)", i, f.n)
	}
	fr, err := pool.Alloc()
	if err != nil {
		return zero, err
	}
	defer fr.Release()
	per := int64(f.PerBlock())
	if err := f.vol.ReadBlock(f.blocks[i/per], fr.Buf); err != nil {
		return zero, err
	}
	off := int(i%per) * f.codec.Size()
	return f.codec.Decode(fr.Buf[off:]), nil
}

// WriteRecordAt overwrites record index i of f via read-modify-write of its
// block (one read plus one write), again modelling the naive random-access
// cost. The file must already contain index i.
func WriteRecordAt[T any](f *File[T], pool *pdm.Pool, i int64, v T) error {
	if i < 0 || i >= f.n {
		return fmt.Errorf("stream: record index %d out of range [0,%d)", i, f.n)
	}
	fr, err := pool.Alloc()
	if err != nil {
		return err
	}
	defer fr.Release()
	per := int64(f.PerBlock())
	addr := f.blocks[i/per]
	if err := f.vol.ReadBlock(addr, fr.Buf); err != nil {
		return err
	}
	off := int(i%per) * f.codec.Size()
	f.codec.Encode(fr.Buf[off:], v)
	return f.vol.WriteBlock(addr, fr.Buf)
}

// BlockAddrs exposes the file's block address list for algorithms (such as
// the naive permuter and the matrix routines) that address blocks directly.
func BlockAddrs[T any](f *File[T]) []int64 { return f.blocks }
