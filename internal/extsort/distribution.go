package extsort

import (
	"fmt"
	"math/rand"
	"slices"

	"em/internal/pdm"
	"em/internal/stream"
)

// DistributionSort sorts f by less into a new file using the survey's
// distribution (bucket) sort: choose k approximate splitters from a sample
// of 4·(k+1) random blocks, partition the input into k+1 = Θ(M/B) buckets
// in one pass, recurse on each bucket until it fits in memory, then
// load-sort it. A level costs one pass plus the 4·(k+1) sample blocks.
// Like merge sort it performs Θ(n·log_m n) I/Os, but passes data top-down
// through splitters instead of bottom-up through merges. It is
// DistributionSortTo writing into a fresh file's writer.
//
// The same Options drive it as MergeSort: Width stripes the partition
// readers and bucket writers over the disks, and Async switches them to
// forecasting read-ahead and write-behind (a partitioning pass is consumed
// strictly in order, so the forecast block is the next sequential one,
// exactly as for a sorted run). Asynchronous streams hold 2×Width frames,
// so the fan-out halves — the distribution-side mirror of the merge fan-in
// trade. At equal fan-out the counted I/Os are identical to the
// synchronous path; only wall-clock overlap changes. The sample is one
// batch read either way.
func DistributionSort[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options) (*stream.File[T], error) {
	out := stream.NewFile[T](f.Vol(), f.Codec())
	ow, err := openSink(out, pool, opts)
	if err != nil {
		return nil, err
	}
	err = DistributionSortTo(f, pool, less, opts, ow)
	if cerr := ow.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// DistributionSortTo is the distribution sort emitting into sink: each
// memory-sized bucket is load-sorted and appended to sink as soon as it is
// reached, smallest key range first, so sink sees the whole input once in
// sorted order and nothing sorted is ever written to the volume by the sort
// itself. Fed a B-tree bulk loader, that is the index build without an
// intermediate sorted file. The sink's frames are the caller's: the sort
// sizes its fan-out and base cases from what pool has free. It never closes
// sink; on error every bucket is released and the pool restored, and the
// caller closes or aborts sink.
func DistributionSortTo[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options, sink stream.Sink[T]) error {
	d := &distSorter[T]{pool: pool, less: less, opts: opts, rng: rand.New(rand.NewSource(0x5EED))}
	return d.sortInto(f, sink, false)
}

type distSorter[T any] struct {
	pool *pdm.Pool
	less func(a, b T) bool
	opts *Options
	rng  *rand.Rand
}

// memRecords returns how many records fit in the frames left after reserving
// the input reader's buffers (the sink's frames are already charged). A pool
// that cannot host even the reader is an error, the same loud failure
// formRunsLoadSort gives.
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
// partition-pass reader; the sink's frames are already charged.
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

// sampleSplitters returns k approximate quantile splitters of f, read off
// the sorted records of 4·(k+1) random blocks, so a level costs its
// partition pass plus that sample rather than a second scan of f. The
// sample is one batch read into the frames the bucket writers are about to
// take, with the partition reader's share held back: it depends only on
// the budget memRecords and fanOut see, so the sort opened ahead and
// behind reads exactly what the on-demand one does at equal fan-out, and
// it never outgrows that memory (synchronous width 1, whose writers take
// nearly every frame, gets about one block per bucket).
//
// Four blocks per bucket, not two: when each block holds one narrow key
// range (sorted or block-clustered input), a block is one sample point.
// On block-clustered input at the 40-frame, 128-block shape of
// TestDistributionSortAdversarialInputs, two per bucket overflowed a
// bucket, and so recursed, on 57 of 300 seeds and four on 1, where the
// record reservoir this replaced recursed on none.
func (d *distSorter[T]) sampleSplitters(f *stream.File[T], k int) ([]T, error) {
	reader, err := d.pool.AllocN(d.opts.streamFrames())
	if err != nil {
		return nil, err
	}
	sample, err := stream.SampleBlocks(f, d.pool, 4*(k+1), d.rng)
	pdm.ReleaseAll(reader)
	if err != nil {
		return nil, err
	}
	// Records equal under less split alike, so the sample needs no stable
	// sort, and pdqsort takes half SymMerge's time on a sample this size.
	slices.SortFunc(sample, compare(d.less))
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
