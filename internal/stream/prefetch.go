// Forecasting read-ahead and write-behind: the second depth of a stream.
//
// The survey's D-disk merging bound rests on forecasting: because a sorted
// run is consumed strictly in order, the next block a reader will need is
// known in advance, so it can be fetched while the CPU (and the other disks)
// are busy. A Reader opened ahead realises exactly that: it keeps its next
// block group permanently in flight, double buffering against the group
// being consumed. A Writer opened behind is the write-side dual, flushing
// the previous block group while the caller fills the next.
//
// Depth changes only when a batch is issued, not which batches are issued:
// the one Reader and the one Writer make the same BatchRead/BatchWrite calls
// at either depth, so every I/O counter is identical and only the wall-clock
// overlap changes. The second group is drawn from the caller's pdm.Pool (a
// width-w stream holds 2w frames instead of w), so the memory budget M still
// holds. Consumers open streams through OpenSource/OpenSink, and every
// sequential pass in the sort/index stack opens at the second depth exactly
// when its plan already holds the second group's frames.
package stream

import "em/internal/pdm"

// Readers and writers at both depths are Sources and Sinks.
var (
	_ Source[int] = (*Reader[int])(nil)
	_ Sink[int]   = (*Writer[int])(nil)
)

// NewPrefetchReader opens a reader over f ahead: it fetches width blocks per
// parallel batch and keeps the following batch in flight from the moment it
// is opened, holding 2×width pool frames.
func NewPrefetchReader[T any](f *File[T], pool *pdm.Pool, width int) (*Reader[T], error) {
	return newReader(f, pool, width, true)
}

// NewAsyncWriter opens a writer appending to f behind: each full group of
// width blocks is flushed while the caller fills the next, holding 2×width
// pool frames.
func NewAsyncWriter[T any](f *File[T], pool *pdm.Pool, width int) (*Writer[T], error) {
	return newWriter(f, pool, width, true)
}

// AsyncForEach streams every record of f through fn using a width-w reader
// opened ahead, overlapping each block fetch with fn's processing of the
// previous group. Its I/O counters are identical to ForEach's at width 1.
func AsyncForEach[T any](f *File[T], pool *pdm.Pool, width int, fn func(T) error) error {
	r, err := NewPrefetchReader(f, pool, width)
	if err != nil {
		return err
	}
	defer r.Close()
	return Drain[T](r, fn)
}
