package shard

import (
	"em/internal/btree"
	"em/internal/index"
)

// Tree is a read-only sharded index: S independent B+-trees, each on its
// own volume with its own disks, range-partitioned by the split keys. It
// serves the full index.Index surface; reads route to the owning shard and
// batches fan out concurrently, one goroutine per shard touched. Like the
// single-volume Tree, the top-level methods are for one goroutine at a
// time — concurrency comes from sessions.
type Tree struct {
	set[*btree.Tree]
}

var (
	_ index.Index   = (*Tree)(nil)
	_ index.Index   = (*Store)(nil)
	_ index.Session = (*Session)(nil)
	_ index.Scanner = (*Scanner)(nil)
)

// TreeOptions configures a sharded tree.
type TreeOptions struct {
	// Splits are the len(shards)-1 strictly increasing partition
	// boundaries: shard i owns keys in [Splits[i-1], Splits[i]), shard 0
	// from zero, the last shard to the top of the keyspace. Every key a
	// shard's tree holds must fall in its interval — the scanner stitches
	// shards by concatenation on that premise.
	Splits []uint64
}

// NewTree assembles a sharded serving facade over already-built per-shard
// trees. The trees are used in place, not copied; the caller keeps
// ownership of their volumes and pools.
func NewTree(shards []*btree.Tree, opts *TreeOptions) (*Tree, error) {
	var o TreeOptions
	if opts != nil {
		o = *opts
	}
	if err := validateSplits(len(shards), o.Splits); err != nil {
		return nil, err
	}
	return &Tree{newSet(shards, o.Splits)}, nil
}

// Warm makes every shard's internal levels resident — the sharded serving
// posture.
func (t *Tree) Warm() error {
	for i, sh := range t.shards {
		if err := sh.Warm(); err != nil {
			return wrapShard(i, err)
		}
	}
	return nil
}

// Scan streams the records with keys in [lo, hi] in key order across
// shards: per-shard scanners opened lazily, concatenated in shard order.
// A range with lo > hi holds no key: its scanner opens no shard scanner.
func (t *Tree) Scan(lo, hi uint64) (index.Scanner, error) {
	if lo > hi {
		return &Scanner{}, nil
	}
	first, last := ownerOf(t.splits, lo), ownerOf(t.splits, hi)
	segs := make([]scanSeg, 0, last-first+1)
	for i := first; i <= last; i++ {
		sh := t.shards[i]
		segs = append(segs, scanSeg{shard: i, open: func() (index.Scanner, error) {
			return sh.Scan(lo, hi)
		}})
	}
	return &Scanner{segs: segs}, nil
}
