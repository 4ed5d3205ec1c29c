// Package pins is the pinpair corpus: the leak shapes are the pin classes
// fixed by hand in this repository's history (PR 3 fixed a batch-lookup
// path that kept pages pinned after a mid-batch read error), and the ok
// shapes are the idioms the sweep must stay silent on.
package pins

import "cache"

// leakOnErrorReturn pins a page and forgets it on a later error unwind.
func leakOnErrorReturn(c *cache.Cache, addr int64) error {
	pg, err := c.Get(addr) // want `pinned page "pg" \(from Get\) is not released`
	if err != nil {
		return err
	}
	if err := cache.Checksum(pg.Data); err != nil {
		return err // leak: pg is still pinned
	}
	c.Unpin(pg)
	return nil
}

// leakPeekNeverUnpinned holds a peeked page's pin forever.
func leakPeekNeverUnpinned(c *cache.Cache, addr int64) []byte {
	pg := c.Peek(addr, false) // want `pinned page "pg" \(from Peek\) is not released`
	if pg == nil {
		return nil
	}
	return append([]byte(nil), pg.Data...)
}

// leakBatchOnLaterError keeps the whole batch pinned when a check after
// the dispatch fails.
func leakBatchOnLaterError(c *cache.Cache, addrs []int64) error {
	pages, _, err := c.GetBatchAsync(addrs, false) // want `pinned page "pages" \(from GetBatchAsync\) is not released`
	if err != nil {
		return err
	}
	if err := cache.Checksum(pages[0].Data); err != nil {
		return err // leak: every page in the batch is still pinned
	}
	for _, pg := range pages {
		c.Unpin(pg)
	}
	return nil
}

// leakRetainedPin states the class at the pin and then forgets the pin: the
// class is an argument of the acquiring call, not a handoff of the page.
func leakRetainedPin(c *cache.Cache, addr int64) error {
	pg, err := c.Pin(addr, true) // want `pinned page "pg" \(from Pin\) is not released`
	if err != nil {
		return err
	}
	return cache.Checksum(pg.Data) // leak: retained or not, pg is still pinned
}

// leakRetainedPeek holds a parent found resident, pinned as retained.
func leakRetainedPeek(c *cache.Cache, addr int64) int {
	pg := c.Peek(addr, true) // want `pinned page "pg" \(from Peek\) is not released`
	if pg == nil {
		return 0
	}
	return len(pg.Data)
}

// leakDiscarded drops the pinned page on the floor outright.
func leakDiscarded(c *cache.Cache, addr int64) {
	_ = c.Peek(addr, false) // want `pinned page result of Peek is discarded`
}

// okErrorCheckedThenUnpinned is the canonical correct shape.
func okErrorCheckedThenUnpinned(c *cache.Cache, addr int64) error {
	pg, err := c.Get(addr)
	if err != nil {
		return err
	}
	if err := cache.Checksum(pg.Data); err != nil {
		c.Unpin(pg)
		return err
	}
	c.Unpin(pg)
	return nil
}

// okRetainedPinUnpinned is a descent step: pin the node as retained, read
// the child pointer, unpin on every path.
func okRetainedPinUnpinned(c *cache.Cache, addr int64) (int64, error) {
	pg, err := c.Pin(addr, true)
	if err != nil {
		return 0, err
	}
	if err := cache.Checksum(pg.Data); err != nil {
		c.Unpin(pg)
		return 0, err
	}
	child := pg.Addr + 1
	c.Unpin(pg)
	return child, nil
}

// okDeferredUnpin covers every path with a defer.
func okDeferredUnpin(c *cache.Cache, addr int64) error {
	pg, err := c.GetNew(addr)
	if err != nil {
		return err
	}
	defer c.Unpin(pg)
	return cache.Checksum(pg.Data)
}

// okPeekGuarded unpins the peeked page on the hit path.
func okPeekGuarded(c *cache.Cache, addr int64) []byte {
	pg := c.Peek(addr, false)
	if pg == nil {
		return nil
	}
	data := append([]byte(nil), pg.Data...)
	c.Unpin(pg)
	return data
}

// okBatchUnpinnedOnBothPaths unpins the batch on the later failure too.
func okBatchUnpinnedOnBothPaths(c *cache.Cache, addrs []int64) error {
	pages, _, err := c.GetBatchAsync(addrs, false)
	if err != nil {
		return err
	}
	if err := cache.Checksum(pages[0].Data); err != nil {
		for _, pg := range pages {
			c.Unpin(pg)
		}
		return err
	}
	for _, pg := range pages {
		c.Unpin(pg)
	}
	return nil
}

// okReturned transfers the pin to the caller.
func okReturned(c *cache.Cache, addr int64) (*cache.Page, error) {
	pg, err := c.Get(addr)
	if err != nil {
		return nil, err
	}
	return pg, nil
}

// cursor owns the pin on the page it parks.
type cursor struct {
	pg *cache.Page
}

// okStoredInStruct parks the page in a struct that owns the pin.
func okStoredInStruct(c *cache.Cache, cur *cursor, addr int64) error {
	pg, err := c.Get(addr)
	if err != nil {
		return err
	}
	cur.pg = pg
	return nil
}

// okAnnotated documents a pin handoff the analysis cannot see.
func okAnnotated(c *cache.Cache, out chan<- *cache.Page, addr int64) error {
	pg, err := c.Get(addr) //emlint:owns: the consumer goroutine unpins
	if err != nil {
		return err
	}
	out <- pg
	return nil
}
