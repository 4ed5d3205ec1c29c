// Package pipeline composes the sort and index layers into the survey's
// write-optimal index construction: a distribution sort whose base cases
// emit straight into a bottom-up B-tree bulk loader, so the sorted order
// never exists as a file. The em facade re-exports SortIndex; the
// experiments package drives it directly.
package pipeline

import (
	"em/internal/btree"
	"em/internal/extsort"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// Options tunes SortIndex; see em.SortIndexOptions for the full story.
type Options struct {
	// Width is the striping width of the sort's streams and of the loader's
	// leaf batches; set it to the volume's disk count D. Zero means 1.
	Width int
	// Async switches the sort's streams to forecast-driven read-ahead and
	// write-behind (double buffers, same counted I/Os at equal fan-out).
	Async bool
	// CacheFrames sizes the tree's buffer manager; zero means 8.
	CacheFrames int
	// Deprecated: the loader's leaves always stream out write-behind; kept
	// until bench/ stops setting it.
	WriteBehind bool
	// Deprecated: the build is always fused; kept until bench/ stops setting it.
	Pipeline bool
	// Deprecated: the build is always fused; kept until bench/ stops setting it.
	PipeDepth int
}

func (o *Options) width() int {
	if o == nil || o.Width < 1 {
		return 1
	}
	return o.Width
}

func (o *Options) cacheFrames() int {
	if o == nil || o.CacheFrames < 1 {
		return 8
	}
	return o.CacheFrames
}

// loaderFrames is what the loader holds: its buffer manager plus the
// 2×Width leaf double buffer.
func (o *Options) loaderFrames() int {
	return o.cacheFrames() + 2*o.width()
}

// SortIndex builds a B+-tree over an unsorted record file: a distribution
// sort whose base cases are appended, in key order, to a bulk loader —
// Sort(N) I/Os plus one write per node. See em.SortIndex for the invariants.
func SortIndex(f *stream.File[record.Record], pool *pdm.Pool, opts *Options) (*btree.Tree, error) {
	vol := f.Vol()
	// Reserve the loader's budget for the whole call and run the loader on a
	// private pool of exactly that size, so the sort's fan-out is what the
	// caller's pool has left.
	reserve, err := pool.AllocN(opts.loaderFrames())
	if err != nil {
		return nil, err
	}
	defer pdm.ReleaseAll(reserve)
	loaderPool := pdm.NewPool(vol.BlockBytes(), opts.loaderFrames())
	ld, err := btree.NewLoader(vol, loaderPool, opts.cacheFrames(),
		&btree.BulkLoadOptions{Width: opts.width()})
	if err != nil {
		return nil, err
	}
	sortOpts := &extsort.Options{Width: opts.width(), Async: opts != nil && opts.Async}
	if err := extsort.DistributionSortTo(f, pool, record.Record.Less, sortOpts, ld); err != nil {
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
	if err := tr.Rehome(pool, opts.cacheFrames()); err != nil {
		ld.Abort()
		return nil, err
	}
	return tr, nil
}
