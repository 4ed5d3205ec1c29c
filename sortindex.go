package em

import (
	"em/internal/extsort"
)

// SortIndexOptions tunes SortIndex, the fused sort→bulk-load index builder.
//
// Width stripes the sort's readers and bucket writers and the loader's leaf
// batches, which go Width at a time through the async engine while the
// next group is packed. The loader's whole budget —
// CacheFrames for the buffer manager plus 2×Width for the leaf double
// buffer — is held back from the pool for the full call, and the sort
// plans in what is left, its streams at the depth the package comment's
// depth rule gives them; size Config.MemBlocks to cover the sort's fan-out
// plus that reservation.
type SortIndexOptions struct {
	// Width is the striping width of the sort's streams and of the loader's
	// leaf batches; set it to the volume's disk count D. Zero means 1.
	Width int
	// Deprecated: the sort's streams read ahead and write behind wherever
	// its plan holds their second group; kept until the repo benchmark
	// stops setting it.
	Async bool
	// CacheFrames sizes the tree's buffer manager; zero means 8.
	CacheFrames int
	// Deprecated: the loader's leaves always stream out write-behind; kept
	// until the repo benchmark stops setting it.
	WriteBehind bool
	// Deprecated: the build is always fused; kept until the repo benchmark
	// stops setting it.
	Pipeline bool
}

// SortIndex builds a B+-tree index over an unsorted record file in one
// fused pass structure: a distribution sort whose base cases — memory-sized
// buckets, reached smallest key range first — are sorted and appended
// straight into a bottom-up bulk loader. Each level splits into only as
// many buckets as its input needs and keeps the lowest in memory, so that
// bucket goes from the partition pass into leaves without touching the
// volume. There is no intermediate sorted file: the build costs Sort(N)
// plus one write per tree node, the survey's index-construction bound, and
// ⌈N/B⌉ writes and ⌈N/B⌉ reads fewer than sorting to a file and
// bulk-loading from it. It runs on the caller's goroutine, so its counted
// I/Os, block placement and parallel steps are fixed by the input and the
// options. Its in-memory sorts are an in-place radix sort on Record.Less's
// total order, which is not stable, but records it ties are equal in bytes,
// so the leaves are those of the stable sort.
//
// Keys must be distinct: the tree is a map and the bulk loader rejects a
// non-strictly-increasing stream with ErrUnsortedInput, which aborts the
// sort mid-emit.
//
// The returned tree's buffer manager draws CacheFrames frames from pool. On
// any error the pool is restored exactly and no blocks are leaked, a
// failure while flushing the finished tree onto pool included.
func SortIndex(f *File[Record], pool *Pool, opts *SortIndexOptions) (*BTree, error) {
	var o SortIndexOptions
	if opts != nil {
		o = *opts
	}
	if o.CacheFrames < 1 {
		o.CacheFrames = 8
	}
	return extsort.SortIndex(f, pool, o.CacheFrames, &SortOptions{Width: o.Width})
}
