package extsort

import (
	"fmt"
	"math/rand"

	"em/internal/pdm"
	"em/internal/stream"
)

// DistributionSort sorts f by less into a new file using the survey's
// distribution (bucket) sort: sample splitters, partition the input into
// Θ(M/B) buckets in one pass, recurse on each bucket until it fits in
// memory, then load-sort it. Like merge sort it performs Θ(n·log_m n) I/Os,
// but passes data top-down through splitters instead of bottom-up through
// merges.
//
// The same Options drive it as MergeSort: Width stripes every reader and
// bucket writer over the disks, and Async switches them to forecasting
// read-ahead and write-behind (a partitioning pass is consumed strictly in
// order, so the forecast block is the next sequential one, exactly as for a
// sorted run). Asynchronous streams hold 2×Width frames, so the fan-out
// halves — the distribution-side mirror of the merge fan-in trade. At equal
// fan-out the counted I/Os are identical to the synchronous path; only
// wall-clock overlap changes.
func DistributionSort[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options) (*stream.File[T], error) {
	return DistributionSortNotify(f, pool, less, opts, nil)
}

// DistributionSortNotify is DistributionSort with a streaming emit mode:
// notify observes the final output writer's flushes, learning — strictly in
// key order, as the recursion finishes buckets smallest key range first —
// which block groups of the sorted output are durable while later buckets
// are still being split and sorted. Feeding a stream.TailPipe's Notify here
// is what lets a consumer (the B-tree bulk loader, via em.SortIndex) read
// sorted output concurrently with the sort, at counted I/Os identical to
// sorting to completion first: the notifications add no transfers, and the
// consumer's reads are the ones it would have issued afterwards anyway.
// A notify error aborts the sort through its normal error paths (buckets
// released, pool restored); a nil notify is exactly DistributionSort.
//
// Error cleanup differs between the two in one deliberate way: block
// groups already announced through notify may still be in a concurrent
// consumer's hands, so with a non-nil notify a failed sort returns the
// partial output file alongside the error instead of releasing it —
// freeing those blocks here would let them be reallocated and overwritten
// under a consumer mid-read. The caller must Release the returned file
// once the consumer has detached. With a nil notify (and on the
// DistributionSort path) a failed sort releases everything and returns
// (nil, err), as ever.
func DistributionSortNotify[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options, notify stream.FlushFunc) (*stream.File[T], error) {
	out := stream.NewFile[T](f.Vol(), f.Codec())
	ow, err := stream.OpenSinkNotify(out, pool, opts.width(), opts.async(), notify)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*stream.File[T], error) {
		if notify != nil {
			return out, err
		}
		out.Release()
		return nil, err
	}
	d := &distSorter[T]{pool: pool, less: less, opts: opts, rng: rand.New(rand.NewSource(0x5EED))}
	if err := d.sortInto(f, ow, false); err != nil {
		ow.Close()
		return fail(err)
	}
	if err := ow.Close(); err != nil {
		return fail(err)
	}
	return out, nil
}

type distSorter[T any] struct {
	pool *pdm.Pool
	less func(a, b T) bool
	opts *Options
	rng  *rand.Rand
}

// memRecords returns how many records fit in the frames left after reserving
// the input reader's buffers (the output writer is already open, so its
// frames are charged). A pool that cannot host even the reader is an error,
// the same loud failure formRunsLoadSort gives.
func (d *distSorter[T]) memRecords(f *stream.File[T]) (int, error) {
	sf := d.opts.streamFrames()
	frames := d.pool.Free() - sf
	if frames < 1 {
		return 0, fmt.Errorf("%w: %d frames free, need > %d", ErrEmptyPool, d.pool.Free(), sf)
	}
	return frames * f.PerBlock(), nil
}

// fanOut returns the number of buckets per level: each bucket writer costs
// streamFrames() pool frames (Width synchronously, 2×Width asynchronously —
// the same per-stream charge maxFanIn levies on the merge side), as does the
// partition-pass reader; the output writer is already open.
func (d *distSorter[T]) fanOut() int {
	sf := d.opts.streamFrames()
	fo := (d.pool.Free() - sf) / sf
	if d.opts != nil && d.opts.ForceFanIn > 0 && d.opts.ForceFanIn < fo {
		fo = d.opts.ForceFanIn
	}
	return fo
}

// sortInto writes the sorted contents of f to ow. If owned, f is released
// once consumed.
func (d *distSorter[T]) sortInto(f *stream.File[T], ow stream.Sink[T], owned bool) error {
	defer func() {
		if owned {
			f.Release()
		}
	}()
	if f.Len() == 0 {
		return nil
	}
	memRecs, err := d.memRecords(f)
	if err != nil {
		return err
	}
	if f.Len() <= int64(memRecs) {
		return d.baseCase(f, ow)
	}
	fo := d.fanOut()
	if fo < 2 {
		return fmt.Errorf("%w: fan-out %d", ErrEmptyPool, fo)
	}
	splitters, err := d.sampleSplitters(f, fo-1)
	if err != nil {
		return err
	}
	buckets, err := d.partition(f, splitters)
	if err != nil {
		return err
	}
	for i, b := range buckets {
		// A bucket equal to the whole input (all-equal keys defeat the
		// splitters) must fall back to the base case to guarantee progress.
		if b.Len() == f.Len() && b.Len() > int64(memRecs) {
			err = d.fallbackMerge(b, ow)
		} else {
			err = d.sortInto(b, ow, true)
		}
		if err != nil {
			// The failed bucket was released by its consumer; the rest would
			// otherwise strand their blocks.
			for _, rest := range buckets[i+1:] {
				rest.Release()
			}
			return err
		}
	}
	return nil
}

// baseCase load-sorts a memory-sized file into ow. The record buffer is
// charged to the pool for its block equivalent — as formRunsLoadSort charges
// its run buffer — so the memory bound M stays enforced, not just computed;
// sortEmit sorts inside that buffer and needs no other.
func (d *distSorter[T]) baseCase(f *stream.File[T], ow stream.Sink[T]) error {
	bufFrames := int((f.Len() + int64(f.PerBlock()) - 1) / int64(f.PerBlock()))
	reserve, err := d.pool.AllocN(bufFrames)
	if err != nil {
		return err
	}
	defer pdm.ReleaseAll(reserve)
	buf := make([]T, 0, f.Len())
	if err := forEach(f, d.pool, d.opts, func(v T) error {
		buf = append(buf, v)
		return nil
	}); err != nil {
		return err
	}
	return sortEmit(buf, d.less, ow.Append)
}

// fallbackMerge handles pathological all-equal buckets with a merge sort,
// whose progress does not depend on key diversity. It writes sorted output
// to ow and releases b, on the error paths included.
func (d *distSorter[T]) fallbackMerge(b *stream.File[T], ow stream.Sink[T]) error {
	sorted, err := MergeSort(b, d.pool, d.less, d.opts)
	b.Release()
	if err != nil {
		return err
	}
	err = forEach(sorted, d.pool, d.opts, func(v T) error { return ow.Append(v) })
	sorted.Release()
	return err
}

// sampleSplitters reservoir-samples the input and returns k approximate
// quantile splitters. Costs one scan — asymptotically absorbed by the
// partition pass that follows (the survey notes an O(n) sampling term).
func (d *distSorter[T]) sampleSplitters(f *stream.File[T], k int) ([]T, error) {
	sampleSize := 8 * (k + 1)
	sample := make([]T, 0, sampleSize)
	seen := 0
	err := forEach(f, d.pool, d.opts, func(v T) error {
		seen++
		if len(sample) < sampleSize {
			sample = append(sample, v)
		} else if j := d.rng.Intn(seen); j < sampleSize {
			sample[j] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortStable(sample, d.less)
	splitters := make([]T, 0, k)
	for i := 1; i <= k; i++ {
		splitters = append(splitters, sample[i*len(sample)/(k+1)])
	}
	return splitters, nil
}

// partition splits f into len(splitters)+1 bucket files in one pass. Bucket
// i receives records v with splitters[i-1] <= v < splitters[i]: a record
// equal to a splitter goes to the bucket on that splitter's right.
func (d *distSorter[T]) partition(f *stream.File[T], splitters []T) ([]*stream.File[T], error) {
	nb := len(splitters) + 1
	buckets := make([]*stream.File[T], nb)
	writers := make([]stream.Sink[T], nb)
	// fail closes every writer still open and releases every bucket file
	// created so far, so a mid-partition error can strand neither pool
	// frames nor volume blocks. Closing a closed writer is a no-op.
	fail := func(err error) error {
		for _, w := range writers {
			if w != nil {
				w.Close()
			}
		}
		for _, b := range buckets {
			if b != nil {
				b.Release()
			}
		}
		return err
	}
	for i := range buckets {
		buckets[i] = stream.NewFile[T](f.Vol(), f.Codec())
		w, err := openSink(buckets[i], d.pool, d.opts)
		if err != nil {
			return nil, fail(err)
		}
		writers[i] = w
	}
	err := forEach(f, d.pool, d.opts, func(v T) error {
		// Binary search for the first splitter greater than v.
		lo, hi := 0, len(splitters)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if d.less(v, splitters[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return writers[lo].Append(v)
	})
	if err != nil {
		return nil, fail(err)
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return nil, fail(err)
		}
	}
	return buckets, nil
}
