package btree

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"em/internal/cache"
)

// Batched query serving. A batch of point lookups over one tree shares most
// of its upper-level node reads: sorted by key, consecutive queries descend
// through the same internal nodes, so each level of the tree touches each
// distinct node exactly once no matter how many keys route through it. The
// distinct nodes of a level are then fetched through the buffer manager on
// the volume's async engine in groups as wide as the buffer manager can pin
// — the batched filtering of the survey's batched problems applied to the
// search structure. On independent disks k random blocks cost their
// per-disk maximum in parallel steps, which approaches k/D only as k grows,
// so a level's misses leave as one or two large parallel reads rather than
// ⌈k/D⌉ reads of D blocks each, and the group after the one being searched
// is always in flight.

// groupWidth bounds a batched fetch: half of the frames that hold no
// retained page, less one, so that two groups — the one being searched and
// the one in flight — fit pinned with an evictable page to spare, and a wide
// group of leaves never evicts the internal nodes the cache keeps resident.
// Leaves that earned the cache's hot class by a hit are not spared: they
// count among the frames left, and a group evicts them once no ordinary
// leaf is unpinned. Sparing them too would narrow every group as the hot
// leaves accumulate, and more groups per level cost more parallel steps
// than the rereads they save. The width is never below
// min(disks, (capacity-1)/2), the disk-count width that a cache saturated
// by its retained pages falls back to: there a group displaces retained
// pages, LRU among themselves, as single reads would.
// Pins held by anyone else (an open Scanner's resident leaves) are not
// counted; forEachSpan narrows its groups when they get in the way.
func groupWidth(c *cache.Cache, disks int) int {
	w := (c.Capacity() - c.Retained() - 1) / 2
	return max(w, min(disks, (c.Capacity()-1)/2), 1)
}

// GetBatch answers a batch of point lookups, returning values and presence
// flags aligned with keys. The batch is processed level by level: keys are
// sorted, each level's distinct nodes are read once (shared internal nodes
// are deduplicated — the root costs one read per batch, not one per key) in
// key order, in groups sized by the buffer manager's unretained frames
// (groupWidth) through the async engine, with the next group dispatched
// while the current one is searched. Counted reads never exceed — and with
// shared internals are strictly below — a loop of Get calls over the same
// keys from the same cache state; results are identical. Duplicate keys are
// answered from a single descent.
func (t *Tree) GetBatch(keys []uint64) ([]uint64, []bool, error) {
	var vals []uint64
	var found []bool
	err := t.gate.Do(func() (err error) {
		vals, found, err = t.getBatch(t.cache, keys)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// fetchGroup is one in-flight slice of a level's distinct nodes. A batch
// owns two and reuses them, address slice included, for every group of
// every level.
type fetchGroup struct {
	spans []span
	addrs []int64
	pages []*cache.Page
	due   time.Time
}

// span is a run of sorted batch positions [lo, hi) that all descend through
// the node at addr on the current level.
type span struct {
	addr   int64
	lo, hi int
}

// getBatch is GetBatch through an explicit buffer manager (tree cache or
// session cache).
func (t *Tree) getBatch(c *cache.Cache, keys []uint64) ([]uint64, []bool, error) {
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, found, nil
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(keys[a], keys[b]) })
	// addrs[k] is the node the k-th smallest key visits on the current level.
	addrs := make([]int64, len(keys))
	for i := range addrs {
		addrs[i] = t.root
	}

	var groups [2]fetchGroup
	var spans []span
	for level := t.height; level >= 1; level-- {
		// The level's distinct nodes: keys are sorted and child slots are
		// monotone in the key, so equal addresses are consecutive and one
		// pass yields the spans in key order.
		spans = spans[:0]
		for k := 0; k < len(order); {
			j := k + 1
			for j < len(order) && addrs[j] == addrs[k] {
				j++
			}
			spans = append(spans, span{addr: addrs[k], lo: k, hi: j})
			k = j
		}
		if err := t.forEachSpan(c, &groups, spans, level > 1, func(sp span, p *cache.Page) {
			if level == 1 {
				for k := sp.lo; k < sp.hi; k++ {
					key := keys[order[k]]
					i := searchLeafSlot(p, key)
					if i < count(p) && leafKey(p, i) == key {
						vals[order[k]] = leafVal(p, i)
						found[order[k]] = true
					}
				}
				return
			}
			for k := sp.lo; k < sp.hi; k++ {
				addrs[k] = t.child(p, searchChildSlot(p, keys[order[k]]))
			}
		}); err != nil {
			return nil, nil, err
		}
	}
	return vals, found, nil
}

// forEachSpan streams one level's spans through the cache, in the order
// given, in groups of the width the buffer manager affords when the level
// starts — taken per level, because the levels above it were just loaded as
// retained pages and a width from before that would evict them again. It
// always dispatches the next group's batched read before searching the
// current one, and calls fn with each span's pinned page; retain is the
// class of the spans' level (above the leaves or not); groups is the
// caller's scratch. On any error the cache has already dropped the failed
// group's unread pages; forEachSpan unpins the group it already fetched
// before returning.
func (t *Tree) forEachSpan(c *cache.Cache, groups *[2]fetchGroup, spans []span, retain bool, fn func(span, *cache.Page)) error {
	gw := groupWidth(c, t.vol.Disks())
	// fetch cuts the next group off spans into g and dispatches its read.
	fetch := func(g *fetchGroup) (err error) {
		for {
			take := min(gw, len(spans))
			g.addrs = g.addrs[:0]
			for _, s := range spans[:take] {
				g.addrs = append(g.addrs, s.addr)
			}
			g.pages, g.due, err = c.GetBatchAsync(g.addrs, retain)
			if take > 1 && errors.Is(err, cache.ErrAllPinned) {
				// Someone else holds pins the width did not count (an open
				// Scanner keeps its resident leaves pinned): the cache has
				// unwound the attempt, so halve the level's groups.
				gw = take / 2
				continue
			}
			g.spans, spans = spans[:take], spans[take:]
			return err
		}
	}
	cur, next := &groups[0], &groups[1]
	if err := fetch(cur); err != nil {
		return err
	}
	for {
		more := len(spans) > 0
		if more {
			if err := fetch(next); err != nil {
				for _, p := range cur.pages {
					c.Unpin(p)
				}
				return err
			}
		}
		t.vol.Wait(cur.due)
		for i, sp := range cur.spans {
			fn(sp, cur.pages[i])
		}
		for _, p := range cur.pages {
			c.Unpin(p)
		}
		if !more {
			return nil
		}
		cur, next = next, cur
	}
}

// Warm loads every internal node of the tree into the buffer manager, level
// by level in groupWidth batches, without touching a single leaf. A query
// server calls it once after loading (or restart) so that descents are
// memory hits and scan forecasting sees resident parents — the classical
// serving assumption that an index's fan-out levels, Θ(N/B²) blocks, live
// in RAM while the Θ(N/B) leaves stay on disk. It costs at most one read
// per internal node, and the nodes stay warm: they are pinned as retained,
// so leaf traffic never evicts one, and only internal nodes beyond the
// cache capacity displace each other (LRU among themselves). Leaves rank
// below them in two tiers: a leaf hit while resident is hot and outlives
// every leaf read once, so a skewed key stream keeps its popular leaves
// while uniform traffic washes through the rest.
func (t *Tree) Warm() error {
	return t.warmWith(t.cache)
}

// warmWith is Warm through an explicit buffer manager.
func (t *Tree) warmWith(c *cache.Cache) error {
	if t.height < 2 {
		return nil
	}
	var groups [2]fetchGroup
	level := []int64{t.root}
	for depth := t.height; depth > 1; depth-- {
		var next []int64
		spans := make([]span, len(level))
		for i, a := range level {
			spans[i] = span{addr: a}
		}
		if err := t.forEachSpan(c, &groups, spans, internal, func(sp span, p *cache.Page) {
			if depth > 2 {
				for j := 0; j <= count(p); j++ {
					next = append(next, t.child(p, j))
				}
			}
		}); err != nil {
			return err
		}
		level = next
	}
	return nil
}
