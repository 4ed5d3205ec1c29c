package btree

import (
	"sort"

	"em/internal/cache"
)

// Batched query serving. A batch of point lookups over one tree shares most
// of its upper-level node reads: sorted by key, consecutive queries descend
// through the same internal nodes, so each level of the tree touches each
// distinct node exactly once no matter how many keys route through it. The
// distinct nodes of a level are then fetched through the buffer manager in
// disk-count groups on the volume's async engine — the batched filtering of
// the survey's batched problems applied to the search structure — so a
// level's reads cost parallel steps, not serialized block times, and the
// group after the one being searched is always in flight.

// groupWidth bounds a batched fetch so that two groups — the one being
// searched and the one in flight — fit pinned in the buffer manager with at
// least one evictable page to spare.
func groupWidth(c *cache.Cache, disks int) int {
	w := disks
	if w < 1 {
		w = 1
	}
	if maxW := (c.Capacity() - 1) / 2; w > maxW {
		w = maxW
	}
	if w < 1 {
		w = 1
	}
	return w
}

// GetBatch answers a batch of point lookups, returning values and presence
// flags aligned with keys. The batch is processed level by level: keys are
// sorted, each level's distinct nodes are read once (shared internal nodes
// are deduplicated — the root costs one read per batch, not one per key) in
// groups of the volume's disk count through the async engine, with the next
// group dispatched while the current one is searched. Counted reads never
// exceed — and with shared internals are strictly below — a loop of Get
// calls over the same keys from the same cache state; results are
// identical. Duplicate keys are answered from a single descent.
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

// fetchGroup is one in-flight slice of a level's distinct nodes.
type fetchGroup struct {
	spans []span
	pages []*cache.Page
	join  func() error
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
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	// addrs[k] is the node the k-th smallest key visits on the current level.
	addrs := make([]int64, len(keys))
	for i := range addrs {
		addrs[i] = t.root
	}
	gw := groupWidth(c, t.vol.Disks())

	for level := t.height; level >= 1; level-- {
		// The level's distinct nodes: keys are sorted and child slots are
		// monotone in the key, so equal addresses are consecutive and one
		// pass yields the spans in key order.
		var spans []span
		for k := 0; k < len(order); {
			j := k + 1
			for j < len(order) && addrs[j] == addrs[k] {
				j++
			}
			spans = append(spans, span{addr: addrs[k], lo: k, hi: j})
			k = j
		}
		if err := t.forEachSpan(c, gw, spans, level > 1, func(sp span, p *cache.Page) {
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

// forEachSpan streams the spans' nodes through the cache in groups of gw,
// always dispatching the next group's batched read before searching the
// current one, and calls fn with each span's pinned page; retain is the
// class of the spans' level (above the leaves or not). On any error the
// cache has already dropped the failed group's unread pages; forEachSpan
// drains whatever else it put in flight before returning.
func (t *Tree) forEachSpan(c *cache.Cache, gw int, spans []span, retain bool, fn func(span, *cache.Page)) error {
	fetch := func(gs []span) (*fetchGroup, error) {
		ga := make([]int64, len(gs))
		for i, s := range gs {
			ga[i] = s.addr
		}
		pages, join, err := c.GetBatchAsync(ga, retain)
		if err != nil {
			return nil, err
		}
		return &fetchGroup{spans: gs, pages: pages, join: join}, nil
	}
	// drain disposes of a group when unwinding: join the read (the engine
	// writes into cache frames until it completes) and unpin on success —
	// on failure the cache has already cleaned up.
	drain := func(g *fetchGroup) {
		if g == nil {
			return
		}
		if g.join() == nil {
			for _, p := range g.pages {
				c.Unpin(p)
			}
		}
	}

	pending := spans
	take := min(gw, len(pending))
	cur, err := fetch(pending[:take])
	if err != nil {
		return err
	}
	pending = pending[take:]
	for cur != nil {
		var next *fetchGroup
		if len(pending) > 0 {
			take := min(gw, len(pending))
			next, err = fetch(pending[:take])
			if err != nil {
				drain(cur)
				return err
			}
			pending = pending[take:]
		}
		if err := cur.join(); err != nil {
			drain(next)
			return err
		}
		for i, sp := range cur.spans {
			fn(sp, cur.pages[i])
		}
		for _, p := range cur.pages {
			c.Unpin(p)
		}
		cur = next
	}
	return nil
}

// Warm loads every internal node of the tree into the buffer manager, level
// by level in disk-count batches, without touching a single leaf. A query
// server calls it once after loading (or restart) so that descents are
// memory hits and scan forecasting sees resident parents — the classical
// serving assumption that an index's fan-out levels, Θ(N/B²) blocks, live
// in RAM while the Θ(N/B) leaves stay on disk. It costs at most one read
// per internal node, and the nodes stay warm: they are pinned as retained,
// so leaf traffic never evicts one, and only internal nodes beyond the
// cache capacity displace each other (LRU among themselves).
func (t *Tree) Warm() error {
	return t.warmWith(t.cache)
}

// warmWith is Warm through an explicit buffer manager.
func (t *Tree) warmWith(c *cache.Cache) error {
	if t.height < 2 {
		return nil
	}
	gw := groupWidth(c, t.vol.Disks())
	level := []int64{t.root}
	for depth := t.height; depth > 1; depth-- {
		var next []int64
		spans := make([]span, len(level))
		for i, a := range level {
			spans[i] = span{addr: a}
		}
		if err := t.forEachSpan(c, gw, spans, internal, func(sp span, p *cache.Page) {
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
