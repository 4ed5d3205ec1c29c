package extsort

import (
	"fmt"
	"math"
	"math/rand"

	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// DistributionSort sorts f by less into a new file using the survey's
// distribution (bucket) sort, made hybrid: each level samples splitters
// from random blocks of its input, partitions it in one pass into only as
// many buckets as the input needs — fewer than the Θ(M/B) memory allows
// once N is within a small multiple of M — and keeps the lowest key range
// in the frames the fewer bucket writers leave free. That resident bucket
// is sorted and emitted as soon as the pass ends, so it is never written
// or read back; the spilled buckets are sorted the same way, recursively,
// smallest key range first, and load-sorted once they fit in memory. A
// level costs one pass over what it spills plus its sample blocks. Like
// merge sort it performs Θ(n·log_m n) I/Os, but passes data top-down
// through splitters instead of bottom-up through merges. It is
// DistributionSortTo writing into a fresh file's writer.
//
// The same Options drive it as MergeSort: Width stripes the partition
// readers and bucket writers over the disks. stream.Depth sets the depth
// of a level's reader and two bucket writers at the sort's budget, and of
// the output writer, opened first, beside them; a level is planned at the
// frames its streams then hold, so at depth 2 its reader, bucket writers
// and base-case readers read ahead and write behind (a partitioning pass
// is consumed strictly in order, so the forecast block is the next
// sequential one, exactly as for a sorted run). A level whose input no
// plan holds is the plain distribution sort: it takes as many buckets as
// Width-frame streams fit and runs them on demand. The sample is one batch
// read.
func DistributionSort[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options) (*stream.File[T], error) {
	out := stream.NewFile[T](f.Vol(), f.Codec())
	// The output writer opens before the first level's reader and two
	// writers, so it writes behind when all four fit at that depth.
	ow, err := openSink(out, pool, opts, stream.Depth(pool.Free(), 4, opts.width()))
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
	return newDistSorter(pool, less, stableKernel(less), opts).sortInto(f, sink, false)
}

// SortIndex builds a B+-tree over an unsorted record file: the
// distribution sort with a bottom-up bulk loader as its sink, so the build
// costs Sort(N) plus one write per tree node and the sorted order never
// exists as a file. Each level's resident bucket — the lowest key range,
// which is also the first the loader needs — goes from the partition pass
// straight into leaves. Every in-memory sort is record.Sort, whose output
// bytes are the stable sort's since Record.Less is total. opts.Width also
// stripes the loader's leaf batches.
// The loader's budget, btree.LoaderFrames, is carved from pool for the
// whole call (pdm.Pool.Carve: the loader packs its leaves into those very
// frames), so the sort's buckets and resident bucket share what pool has
// left, and its levels take their depth from what is left. The
// returned tree's buffer manager draws cacheFrames frames from pool. On
// any error pool is restored exactly and no blocks are leaked. See
// em.SortIndex for the contract.
func SortIndex(f *stream.File[record.Record], pool *pdm.Pool, cacheFrames int, opts *Options) (*btree.Tree, error) {
	vol := f.Vol()
	lp, err := pool.Carve(btree.LoaderFrames(cacheFrames, opts.width()))
	if err != nil {
		return nil, err
	}
	defer lp.Close()
	ld, err := btree.NewLoader(vol, lp, cacheFrames, &btree.BulkLoadOptions{Width: opts.width()})
	if err != nil {
		return nil, err
	}
	d := newDistSorter(pool, record.Record.Less, recordKernel, opts)
	if err := d.sortInto(f, ld, false); err != nil {
		ld.Abort()
		return nil, err
	}
	if err := ld.Close(); err != nil {
		return nil, err
	}
	// The construction budget is about to be released; rehome the tree's
	// buffer manager onto the caller's pool. A failed flush leaves the old
	// one in place, so the loader can still take back every node.
	tr := ld.Tree()
	if err := tr.Rehome(pool, cacheFrames); err != nil {
		ld.Abort()
		return nil, err
	}
	return tr, nil
}

type distSorter[T any] struct {
	pool *pdm.Pool
	less func(a, b T) bool
	kern kernel[T]
	opts *Options
	rng  *rand.Rand
	// depth is every planned stream's, from stream.Depth for a level's
	// reader and two writers at the sort's budget.
	depth int
}

// newDistSorter returns a sorter over what pool has free now. Every level
// starts from that budget — a level releases all it holds before its
// buckets are sorted — so the depth is fixed once: 2 when a reader and two
// writers fit at 2×Width, else 1.
func newDistSorter[T any](pool *pdm.Pool, less func(a, b T) bool, kern kernel[T], opts *Options) *distSorter[T] {
	return &distSorter[T]{pool: pool, less: less, kern: kern, opts: opts,
		rng: rand.New(rand.NewSource(0x5EED)), depth: stream.Depth(pool.Free(), 3, opts.width())}
}

// sf returns the frames each planned stream holds.
func (d *distSorter[T]) sf() int { return d.depth * d.opts.width() }

// memRecords returns how many records fit in the frames left after reserving
// the input reader's buffers (the sink's frames are already charged). A pool
// that cannot host even the reader is an error, the same loud failure
// formRuns gives.
func (d *distSorter[T]) memRecords(f *stream.File[T]) (int, error) {
	frames := d.pool.Free() - d.sf()
	if frames < 1 {
		return 0, fmt.Errorf("%w: %d frames free, need > %d", ErrEmptyPool, d.pool.Free(), d.sf())
	}
	return frames * f.PerBlock(), nil
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
	buckets, err := d.level(f, ow, memRecs)
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
			releaseFiles(buckets[i+1:])
			return err
		}
	}
	return nil
}

// level runs one partition pass over f, whose memory-sized base cases
// hold memRecs records. It samples the splitters, plans the level, keeps
// the lowest key range in memory for the pass — sorted and emitted into ow
// before any spilled bucket is read — and returns the spilled buckets,
// lowest key range first. Where the resident bucket outgrew its frames it
// was spilled and is the first of them. The resident records live in the
// partition's Go slice; the frames level reserves for them from the pool
// are counted but never touched.
func (d *distSorter[T]) level(f *stream.File[T], ow stream.Sink[T], memRecs int) ([]*stream.File[T], error) {
	fo := fanOut(d.pool.Free(), d.sf(), d.opts)
	if fo < 2 {
		return nil, fmt.Errorf("%w: fan-out %d", ErrEmptyPool, fo)
	}
	sample, err := d.sample(f, fo)
	if err != nil {
		return nil, err
	}
	per := f.PerBlock()
	k, resident, target := d.plan(f.Len(), memRecs, per, (len(sample)+per-1)/per, fo)
	depth := d.depth
	if k == 0 {
		// No plan holds the input: the plain distribution sort, with as
		// many buckets as on-demand streams fit.
		depth = 1
		k = fanOut(d.pool.Free(), d.opts.width(), d.opts)
	}
	// The splitters cut the sample at the resident bucket's share, then
	// what lies above it into k equal parts, one per spilled bucket.
	lo := int(int64(len(sample)) * int64(target) / f.Len())
	cuts := make([]T, 0, k)
	if resident > 0 {
		cuts = append(cuts, sample[lo])
	}
	for j := 1; j < k; j++ {
		cuts = append(cuts, sample[lo+j*(len(sample)-lo)/k])
	}
	reserve, err := d.pool.AllocN(resident)
	if err != nil {
		return nil, err
	}
	defer pdm.ReleaseAll(reserve)
	res, buckets, err := d.partition(f, cuts, resident*per, depth)
	if err != nil {
		return nil, err
	}
	if err := sortEmit(res, d.less, d.kern, ow.Append); err != nil {
		releaseFiles(buckets)
		return nil, err
	}
	return buckets, nil
}

// plan sizes a level of n records, sampled by s blocks, within fo
// buckets: k spilled buckets, the frames the resident bucket is kept in,
// and the records its key range is sized to.
//
// Every bucket is expected to hold at most memRecs over a slack of 1 + 3/p,
// where p = √(s/(k+1)). On block-clustered or sorted input a block is one
// sample point, so a bucket's share is estimated from about s/(k+1) points
// and its standard deviation is about 1/p of its size: the slack covers
// three of them, so a bucket outgrows memory, and recurses, only on a
// sample three deviations off. The resident bucket gets the frames left
// once the reader, the k writers and one more writer (for its own spill)
// are charged, and its key range is sized to 7/8 of them, or to the slack
// if that is less, so the sample must undercount the lowest range by at
// least an eighth before it spills. k is the fewest spilled buckets that
// hold the rest, so a level has at most fo buckets, the resident one
// included. When no k below fo does, plan returns k = 0.
func (d *distSorter[T]) plan(n int64, memRecs, per, s, fo int) (k, resident, target int) {
	sf := d.sf()
	for k = 1; k < fo; k++ {
		p := math.Sqrt(float64(s) / float64(k+1))
		bucket := float64(memRecs) * p / (p + 3)
		resident = max(0, d.pool.Free()-(k+2)*sf)
		target = min(resident*per*7/8, int(bucket))
		if math.Ceil(float64(n-int64(target))/float64(k)) <= bucket {
			return k, resident, target
		}
	}
	return 0, 0, 0
}

// releaseFiles releases every file in fs.
func releaseFiles[T any](fs []*stream.File[T]) {
	for _, f := range fs {
		f.Release()
	}
}

// baseCase load-sorts a memory-sized file into ow. It reserves the record
// buffer's block equivalent from the pool — as formRuns does for its run
// buffer — so the pool's count enforces the memory bound M, but it leaves
// those frames untouched and reads the records into a Go slice of the same
// size made beside them; sortEmit sorts inside that slice and needs no
// other.
func (d *distSorter[T]) baseCase(f *stream.File[T], ow stream.Sink[T]) error {
	bufFrames := int((f.Len() + int64(f.PerBlock()) - 1) / int64(f.PerBlock()))
	reserve, err := d.pool.AllocN(bufFrames)
	if err != nil {
		return err
	}
	defer pdm.ReleaseAll(reserve)
	buf := make([]T, 0, f.Len())
	if err := forEach(f, d.pool, d.opts, d.depth, func(v T) error {
		buf = append(buf, v)
		return nil
	}); err != nil {
		return err
	}
	return sortEmit(buf, d.less, d.kern, ow.Append)
}

// fallbackMerge handles pathological all-equal buckets with a merge sort,
// whose progress does not depend on key diversity. It writes sorted output
// to ow and releases b, on the error paths included.
func (d *distSorter[T]) fallbackMerge(b *stream.File[T], ow stream.Sink[T]) error {
	sorted, err := mergeSort(b, d.pool, d.less, d.kern, d.opts)
	b.Release()
	if err != nil {
		return err
	}
	err = forEach(sorted, d.pool, d.opts, d.depth, func(v T) error { return ow.Append(v) })
	sorted.Release()
	return err
}

// sample returns the sorted records of 4·fo random blocks of f, from which
// a level of at most fo buckets takes its splitters, so a level costs its
// partition pass plus that sample rather than a second scan of f. The
// sample is one batch read into the frames the bucket writers are about to
// take, with the partition reader's share held back, so it never outgrows
// that memory (width 1, whose writers take nearly every frame, gets about
// two blocks per bucket).
//
// Four blocks per bucket, not two: when each block holds one narrow key
// range (sorted or block-clustered input), a block is one sample point.
// On block-clustered input at the 40-frame, 128-block shape of
// TestDistributionSortAdversarialInputs, two per bucket overflowed a
// bucket, and so recursed, on 57 of 300 seeds and four on 1, where the
// record reservoir this replaced recursed on none.
func (d *distSorter[T]) sample(f *stream.File[T], fo int) ([]T, error) {
	reader, err := d.pool.AllocN(d.sf())
	if err != nil {
		return nil, err
	}
	sample, err := stream.SampleBlocks(f, d.pool, 4*fo, d.rng)
	pdm.ReleaseAll(reader)
	if err != nil {
		return nil, err
	}
	// Records equal under less split alike, so the sample needs no stable
	// sort: record.Sort for the Record entry points, pdqsort otherwise.
	d.kern.sample(sample)
	return sample, nil
}

// partition splits f into len(splitters)+1 buckets in one pass, its reader
// and bucket writers at depth. Bucket i receives records v with
// splitters[i-1] <= v < splitters[i]: a record equal to a splitter goes to
// the bucket on that splitter's right. When resident > 0, bucket 0 is kept
// in memory, up to resident records, and returned as a slice, its file
// left empty; a bucket 0 that outgrows them is spilled into its file,
// which then holds all of it, and the slice is nil. The caller reserves
// the resident records' block equivalent from the pool (frames the slice
// does not use), and must leave one writer's frames free for the spill.
func (d *distSorter[T]) partition(f *stream.File[T], splitters []T, resident, depth int) ([]T, []*stream.File[T], error) {
	nb := len(splitters) + 1
	buckets := make([]*stream.File[T], nb)
	writers := make([]stream.Sink[T], nb)
	// fail closes every writer still open and releases every bucket file
	// created so far, so a mid-partition error can strand neither pool
	// frames nor volume blocks. Closing a closed writer is a no-op.
	fail := func(err error) ([]T, []*stream.File[T], error) {
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
		return nil, nil, err
	}
	var res *spillSink[T]
	for i := range buckets {
		buckets[i] = stream.NewFile[T](f.Vol(), f.Codec())
		if i == 0 && resident > 0 {
			res = &spillSink[T]{d: d, f: buckets[0], vs: make([]T, 0, resident)}
			writers[0] = res
			continue
		}
		w, err := openSink(buckets[i], d.pool, d.opts, depth)
		if err != nil {
			return fail(err)
		}
		writers[i] = w
	}
	err := forEach(f, d.pool, d.opts, depth, func(v T) error {
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
		return fail(err)
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return fail(err)
		}
	}
	if res == nil {
		return nil, buckets, nil
	}
	return res.vs, buckets, nil
}

// spillSink is the resident bucket's writer. It keeps records in memory
// up to the capacity vs was made with; the record that overflows it opens
// an ordinary bucket writer on f, which takes every record held so far and
// every one after, so a sample that undercounts the lowest key range costs
// a spill, not a failure.
type spillSink[T any] struct {
	d  *distSorter[T]
	f  *stream.File[T]
	vs []T
	w  stream.Sink[T]
}

func (s *spillSink[T]) Append(v T) error {
	if s.w == nil {
		if len(s.vs) < cap(s.vs) {
			s.vs = append(s.vs, v)
			return nil
		}
		w, err := openSink(s.f, s.d.pool, s.d.opts, s.d.depth)
		if err != nil {
			return err
		}
		s.w = w
		for _, u := range s.vs {
			if err := w.Append(u); err != nil {
				return err
			}
		}
		s.vs = nil
	}
	return s.w.Append(v)
}

// Close closes the spill writer, if the bucket spilled.
func (s *spillSink[T]) Close() error {
	if s.w == nil {
		return nil
	}
	return s.w.Close()
}
