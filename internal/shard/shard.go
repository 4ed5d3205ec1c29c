// Package shard scales the serving layer past one volume's disk set: it
// range-partitions the uint64 keyspace across S independent volumes — each
// with its own Config, directory, and disks — behind the same index.Index
// contract the single-volume implementations serve. This is the Parallel
// Disk Model's striping lifted one level: D disks inside a volume, S
// volumes inside a system.
//
// The partition is given as S-1 split keys; shard i owns the half-open
// interval [splits[i-1], splits[i]) (shard 0 from zero, the last shard to
// the top of the keyspace). Batched lookups exploit the sort the
// single-volume GetBatch already performs: the ordered batch is cut at the
// partition boundaries — a merge cut, one binary search per shard touched,
// never a per-key routing pass — and the per-shard sub-batches fan out
// concurrently, each shard answering on its own disks. Cross-shard scans
// concatenate per-shard scanners in shard order, which is key order,
// behind one stream.Source, pulling a tree shard's records a leaf at a
// time. Sessions compose per-shard sessions, each with
// its reserved budget on its own shard's pool. Writes (shard.Store) route
// to the owning shard's write front, and background drains proceed per
// shard.
//
// Aggregated Stats sum the per-shard counters and concatenate the
// per-disk breakdowns in shard order, so the module's counter invariants —
// sim == file byte-identical snapshots, async == sync counted I/Os —
// extend verbatim to the sharded surface: the aggregate is byte-identical
// across backends exactly when every shard's snapshot is. Every error a
// shard surfaces is wrapped with its shard index (errors.Is/As still see
// the cause), so a starved pool reports which shard hit its budget; a
// batch fan-out that loses some shards but not all degrades gracefully,
// returning the survivors' answers alongside a *PartialError instead of
// failing the whole batch (see PartialError for the contract).
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"em/internal/index"
	"em/internal/pdm"
)

// ErrClosed reports an operation on a closed sharded session.
var ErrClosed = errors.New("shard: closed")

// wrapShard tags an error with the shard it came from, preserving
// errors.Is/As through %w — a starved pool's pdm.ErrNoFrames names the
// shard that exhausted its budget instead of surfacing bare.
func wrapShard(i int, err error) error {
	return fmt.Errorf("shard %d: %w", i, err)
}

// ownerOf returns the shard owning key: the number of splits at or below
// it.
func ownerOf(splits []uint64, key uint64) int {
	return sort.Search(len(splits), func(i int) bool { return key < splits[i] })
}

// validateSplits checks the partition shape: S shards need exactly S-1
// strictly increasing split keys.
func validateSplits(shards int, splits []uint64) error {
	if shards < 1 {
		return errors.New("shard: need at least one shard")
	}
	if len(splits) != shards-1 {
		return fmt.Errorf("shard: %d shards need %d splits, got %d", shards, shards-1, len(splits))
	}
	for i := 1; i < len(splits); i++ {
		if splits[i] <= splits[i-1] {
			return fmt.Errorf("shard: splits must be strictly increasing (split %d: %d after %d)",
				i, splits[i], splits[i-1])
		}
	}
	return nil
}

// batchSeg is one shard's contiguous run [lo, hi) of the sorted batch view.
type batchSeg struct {
	shard  int
	lo, hi int
}

// cutBatch sorts an order index over keys (the merge view the single-volume
// GetBatch builds anyway) and cuts it at the partition boundaries: each
// shard touched yields one contiguous segment, found with one binary search
// per boundary rather than a per-key routing pass. Segments come back in
// ascending shard order, so no shard appears twice.
func cutBatch(splits []uint64, keys []uint64) (order []int, segs []batchSeg) {
	order = make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	for k := 0; k < len(order); {
		sh := ownerOf(splits, keys[order[k]])
		j := len(order)
		if sh < len(splits) {
			// The merge cut: the first sorted position at or past the
			// shard's upper boundary.
			j = k + sort.Search(len(order)-k, func(m int) bool {
				return keys[order[k+m]] >= splits[sh]
			})
		}
		segs = append(segs, batchSeg{shard: sh, lo: k, hi: j})
		k = j
	}
	return order, segs
}

// PartialError reports a fanned-out GetBatch that lost some shards while
// the rest answered: graceful degradation instead of failing the whole
// batch for one faulted shard. It is returned alongside the surviving
// results — vals and found stay valid for every key whose Served entry is
// true — so a caller that can tolerate holes keeps the answers it got,
// and one that cannot treats the error like any other failure.
//
// Unwrap exposes every per-shard cause (each already wrapped with its
// shard index), so errors.Is and errors.As see through to the underlying
// classification — a starved shard's pdm.ErrNoFrames, a shed shard's
// overload, a dead disk's pdm.ErrFaulted.
type PartialError struct {
	// Failed and Causes are the shards that failed, ascending, with their
	// wrapped errors aligned.
	Failed []int
	Causes []error
	// Answered are the shards whose results are intact, ascending.
	Answered []int
	// Served aligns with the caller's keys: true exactly when the key's
	// shard answered, so its vals/found entries are trustworthy.
	Served []bool
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("shard: partial batch: %d of %d shards failed (first: %v)",
		len(e.Failed), len(e.Failed)+len(e.Answered), e.Causes[0])
}

// Unwrap exposes the per-shard causes.
func (e *PartialError) Unwrap() []error { return e.Causes }

// fanOutBatch answers an aligned batch through per-shard GetBatch calls:
// cut the sorted view, fan the sub-batches out concurrently — one
// goroutine per shard touched, each shard on its own volume — and write
// every shard's answers back into the caller's alignment. When some but
// not all shards fail, the surviving results are returned with a
// *PartialError describing the holes; only a batch with no surviving
// shard fails outright.
func fanOutBatch(splits []uint64, keys []uint64,
	get func(shard int, sub []uint64) ([]uint64, []bool, error)) ([]uint64, []bool, error) {
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, found, nil
	}
	order, segs := cutBatch(splits, keys)
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for si, sg := range segs {
		wg.Add(1)
		go func(si int, sg batchSeg) {
			defer wg.Done()
			sub := make([]uint64, sg.hi-sg.lo)
			for m := range sub {
				sub[m] = keys[order[sg.lo+m]]
			}
			v, f, err := get(sg.shard, sub)
			if err != nil {
				errs[si] = wrapShard(sg.shard, err)
				return
			}
			for m := range sub {
				i := order[sg.lo+m]
				vals[i], found[i] = v[m], f[m]
			}
		}(si, sg)
	}
	wg.Wait()
	perr := &PartialError{}
	for si, sg := range segs {
		if errs[si] != nil {
			perr.Failed = append(perr.Failed, sg.shard)
			perr.Causes = append(perr.Causes, errs[si])
		} else {
			perr.Answered = append(perr.Answered, sg.shard)
		}
	}
	if len(perr.Failed) == 0 {
		return vals, found, nil
	}
	if len(perr.Answered) == 0 {
		// Nothing survived: no degradation to offer, fail plainly.
		return nil, nil, perr.Causes[0]
	}
	perr.Served = make([]bool, len(keys))
	for si, sg := range segs {
		if errs[si] != nil {
			continue
		}
		for m := sg.lo; m < sg.hi; m++ {
			perr.Served[order[m]] = true
		}
	}
	return vals, found, perr
}

// addStats accumulates one shard's snapshot into the aggregate: the scalar
// counters sum, and the per-disk breakdowns concatenate in shard order —
// the system's disks are the shards' disks laid end to end — so the
// aggregate stays byte-identical across storage backends exactly when
// every shard's snapshot is.
func addStats(agg *pdm.Stats, s pdm.Stats) {
	agg.Reads += s.Reads
	agg.Writes += s.Writes
	agg.Steps += s.Steps
	agg.Retries += s.Retries
	agg.PerDiskReads = append(agg.PerDiskReads, s.PerDiskReads...)
	agg.PerDiskWrites = append(agg.PerDiskWrites, s.PerDiskWrites...)
}

// set is the routing core both sharded indexes share: the per-shard
// indexes and the split keys between them. Tree and Store embed it, so
// routing, fan-out, sessions, Stats and Close are written once.
type set[S index.Index] struct {
	shards []S
	splits []uint64
}

func newSet[S index.Index](shards []S, splits []uint64) set[S] {
	return set[S]{shards: shards, splits: append([]uint64(nil), splits...)}
}

// Shards returns the number of shards.
func (s *set[S]) Shards() int { return len(s.shards) }

// Shard returns shard i's index, for per-shard setup (such as a tree's
// Warm) or inspection.
func (s *set[S]) Shard(i int) S { return s.shards[i] }

// Owner returns the index of the shard owning key.
func (s *set[S]) Owner(key uint64) int { return ownerOf(s.splits, key) }

// Get routes a point lookup to the owning shard.
func (s *set[S]) Get(key uint64) (uint64, bool, error) {
	sh := ownerOf(s.splits, key)
	v, ok, err := s.shards[sh].Get(key)
	if err != nil {
		return 0, false, wrapShard(sh, err)
	}
	return v, ok, nil
}

// GetBatch answers an aligned batch by cutting its sorted view at the
// partition boundaries and fanning the per-shard sub-batches out
// concurrently — each shard dedupes and stripes its own piece over its own
// disks.
func (s *set[S]) GetBatch(keys []uint64) ([]uint64, []bool, error) {
	return fanOutBatch(s.splits, keys, func(sh int, sub []uint64) ([]uint64, []bool, error) {
		return s.shards[sh].GetBatch(sub)
	})
}

// NewSession opens a composed read session: one session per shard (a
// store's pins its shard's generation), each with its own reserved budget
// on its shard's pool. Zero (or out-of-range) arguments take each shard's
// configured defaults.
func (s *set[S]) NewSession(cacheFrames, width int) (index.Session, error) {
	return newSession(s.splits, len(s.shards), func(i int) (index.Session, error) {
		return s.shards[i].NewSession(cacheFrames, width)
	})
}

// Stats aggregates the per-shard volume snapshots: counters summed,
// per-disk breakdowns concatenated in shard order.
func (s *set[S]) Stats() pdm.Stats {
	var agg pdm.Stats
	for _, sh := range s.shards {
		addStats(&agg, sh.Stats())
	}
	return agg
}

// Close closes every shard — a tree flushes its cache, a store drains
// first — reporting the first failure with its shard index but closing the
// rest regardless.
func (s *set[S]) Close() error {
	var first error
	for i, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = wrapShard(i, err)
		}
	}
	return first
}
