package shard

import (
	"fmt"
	"sync"

	"em/internal/index"
	"em/internal/pdm"
	"em/internal/store"
)

// Store is the updatable sharded index: one store.Store per shard, each on
// its own volume with its own background drain, behind the same
// index.Index surface as the sharded Tree plus the write and drain
// controls. Writes route to the owning shard's front; the shards seal and
// drain independently, so a drain on one shard never stalls reads or
// writes on another. Reads are safe for concurrent use, as the per-shard
// stores are.
type Store struct {
	set[*store.Store]
}

// StoreOptions configures a sharded store.
type StoreOptions struct {
	// Splits are the len(vols)-1 strictly increasing partition boundaries,
	// with the same ownership rule as TreeOptions.Splits.
	Splits []uint64
	// Store configures each per-shard store (block geometry comes from the
	// shard's own volume; zero fields take store.Config's defaults).
	Store store.Config
}

// OpenStore opens one store per volume — vols[i] and pools[i] back shard
// i — and assembles the sharded facade. On failure the stores already
// opened are closed and the error carries the failing shard's index. The
// caller keeps ownership of the volumes and pools.
func OpenStore(vols []*pdm.Volume, pools []*pdm.Pool, opts *StoreOptions) (*Store, error) {
	var o StoreOptions
	if opts != nil {
		o = *opts
	}
	if len(vols) != len(pools) {
		return nil, fmt.Errorf("shard: %d volumes but %d pools", len(vols), len(pools))
	}
	if err := validateSplits(len(vols), o.Splits); err != nil {
		return nil, err
	}
	shards := make([]*store.Store, len(vols))
	for i := range vols {
		st, err := store.Open(vols[i], pools[i], o.Store)
		if err != nil {
			for j := 0; j < i; j++ {
				shards[j].Close()
			}
			return nil, wrapShard(i, err)
		}
		shards[i] = st
	}
	return &Store{newSet(shards, o.Splits)}, nil
}

// Insert routes an upsert to the owning shard's write front.
func (s *Store) Insert(key, val uint64) error {
	sh := ownerOf(s.splits, key)
	if err := s.shards[sh].Insert(key, val); err != nil {
		return wrapShard(sh, err)
	}
	return nil
}

// Delete routes a delete to the owning shard's front.
func (s *Store) Delete(key uint64) error {
	sh := ownerOf(s.splits, key)
	if err := s.shards[sh].Delete(key); err != nil {
		return wrapShard(sh, err)
	}
	return nil
}

// Scan streams the records with keys in [lo, hi] in key order across
// shards. Every shard's snapshot scanner is opened here, before the first
// Next, so the cut each shard sees is taken at Scan time — lazy opening
// would let a late shard's snapshot include writes made after the scan
// began. A range with lo > hi holds no key: its scanner opens no shard
// scanner and pins no snapshot.
func (s *Store) Scan(lo, hi uint64) (index.Scanner, error) {
	if lo > hi {
		return &Scanner{}, nil
	}
	first, last := ownerOf(s.splits, lo), ownerOf(s.splits, hi)
	segs := make([]scanSeg, 0, last-first+1)
	for i := first; i <= last; i++ {
		src, err := s.shards[i].Scan(lo, hi)
		if err != nil {
			for j := range segs {
				segs[j].src.Close()
			}
			return nil, wrapShard(i, err)
		}
		segs = append(segs, scanSeg{shard: i, src: src})
	}
	return &Scanner{segs: segs}, nil
}

// StartDrain kicks a background drain on every shard whose front has
// work, without blocking; it reports whether any shard is draining
// afterwards.
func (s *Store) StartDrain() bool {
	any := false
	for _, sh := range s.shards {
		if sh.StartDrain() {
			any = true
		}
	}
	return any
}

// Draining reports whether any shard has a drain in flight.
func (s *Store) Draining() bool {
	for _, sh := range s.shards {
		if sh.Draining() {
			return true
		}
	}
	return false
}

// Drain forces every shard's buffered operations down into its base tree
// and waits; the shards drain concurrently, each on its own volume. The
// first failure is reported with its shard index.
func (s *Store) Drain() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *store.Store) {
			defer wg.Done()
			if err := sh.Drain(); err != nil {
				errs[i] = wrapShard(i, err)
			}
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Drains returns the total number of completed drains across shards.
func (s *Store) Drains() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.Drains()
	}
	return n
}

// FrontOps returns the total operations buffered in the shards' fronts
// (including sealed fronts still draining).
func (s *Store) FrontOps() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.FrontOps()
	}
	return n
}
