package btree

// Release ends the tree's life: it walks the internal levels to collect
// every node address, returns all node blocks to the volume, and closes
// the buffer manager without writing anything back. A generational store
// calls it when the last reader of a superseded generation departs, so a
// retired tree's Θ(N/B) blocks are reclaimed instead of leaking for the
// store's lifetime. It costs one read per internal node (Θ(N/B²); leaves
// are freed without being read) against a flushed tree; the tree is
// unusable afterwards.
func (t *Tree) Release() error {
	addrs := make([]int64, 0, 16)
	level := []int64{t.root}
	var walkErr error
	for depth := t.height; depth > 1; depth-- {
		next := make([]int64, 0, len(level)*(t.keyCap+1))
		for _, a := range level {
			p, err := t.cache.Pin(a, internal)
			if err != nil {
				walkErr = err
				break
			}
			for j := 0; j <= count(p); j++ {
				next = append(next, t.child(p, j))
			}
			t.cache.Unpin(p)
		}
		addrs = append(addrs, level...)
		if walkErr != nil {
			// Best effort: free what was discovered before the failure.
			addrs = append(addrs, next...)
			break
		}
		level = next
	}
	if walkErr == nil {
		addrs = append(addrs, level...)
	}
	// Every cached page is a node being freed: discard them all unwritten
	// before freeing, since a block returned to the volume may be
	// reallocated immediately. Discarding needs no transfer, so the frames
	// come back even when the walk failed on a dead device.
	err := t.cache.Discard()
	for _, a := range addrs {
		t.vol.Free(a)
	}
	if walkErr != nil {
		return walkErr
	}
	return err
}
