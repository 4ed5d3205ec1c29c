package btree

import "em/internal/cache"

// Deletion with the standard B+-tree rebalancing: a node that underflows
// below half occupancy is either merged with an adjacent sibling or refilled
// by redistributing entries with it, removing or updating one separator in
// the parent. The root collapses when it is an internal node with a single
// child, so the tree shrinks as it empties. Every delete stays within
// Θ(log_B N) I/Os.

// minLeaf and minKeys give the underflow thresholds. The root is exempt.
func (t *Tree) minLeaf() int { return (t.leafCap + 1) / 2 }
func (t *Tree) minKeys() int { return (t.keyCap + 1) / 2 }

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key uint64) (bool, error) {
	removed, _, err := t.deleteAt(t.root, t.height, key)
	if err != nil {
		return false, err
	}
	if removed {
		t.n--
	}
	// Collapse internal roots left with a single child.
	for t.height > 1 {
		p, err := t.cache.Pin(t.root, internal)
		if err != nil {
			return removed, err
		}
		if count(p) > 0 {
			t.cache.Unpin(p)
			break
		}
		old := t.root
		t.root = t.child(p, 0)
		t.cache.Unpin(p)
		t.cache.Drop(old)
		t.vol.Free(old)
		t.height--
	}
	return removed, nil
}

// deleteAt removes key from the subtree at addr (level 1 = leaf). underflow
// reports whether the node at addr dropped below its minimum and needs the
// parent to rebalance it.
func (t *Tree) deleteAt(addr int64, level int, key uint64) (removed, underflow bool, err error) {
	p, err := t.cache.Pin(addr, level > 1)
	if err != nil {
		return false, false, err
	}

	if level == 1 {
		defer t.cache.Unpin(p)
		i := searchLeafSlot(p, key)
		n := count(p)
		if i >= n || leafKey(p, i) != key {
			return false, false, nil
		}
		for j := i; j < n-1; j++ {
			setLeafKV(p, j, leafKey(p, j+1), leafVal(p, j+1))
		}
		setCount(p, n-1)
		return true, n-1 < t.minLeaf(), nil
	}

	slot := searchChildSlot(p, key)
	childAddr := t.child(p, slot)
	// As in insertAt, unpin during the descent so only O(1) pages are
	// pinned at once.
	t.cache.Unpin(p)
	removed, childUnder, err := t.deleteAt(childAddr, level-1, key)
	if err != nil {
		return false, false, err
	}
	if !childUnder {
		return removed, false, nil
	}
	p, err = t.cache.Pin(addr, internal)
	if err != nil {
		return false, false, err
	}
	defer t.cache.Unpin(p)
	// Rebalance the child with its left sibling when it has one, otherwise
	// with its right sibling.
	li := slot - 1
	if slot == 0 {
		li = 0
	}
	if err := t.fixPair(p, li, level-1); err != nil {
		return removed, false, err
	}
	return removed, count(p) < t.minKeys(), nil
}

// fixPair rebalances the adjacent children of p at slots li and li+1 (the
// separator between them is key li): merge if everything fits in one node,
// redistribute evenly otherwise. childLevel is 1 when the children are
// leaves.
func (t *Tree) fixPair(p *cache.Page, li, childLevel int) error {
	ri := li + 1
	left, err := t.cache.Pin(t.child(p, li), childLevel > 1)
	if err != nil {
		return err
	}
	right, err := t.cache.Pin(t.child(p, ri), childLevel > 1)
	if err != nil {
		t.cache.Unpin(left)
		return err
	}
	defer t.cache.Unpin(left)

	if childLevel == 1 {
		nl, nr := count(left), count(right)
		if nl+nr <= t.leafCap {
			// Merge right into left.
			for j := 0; j < nr; j++ {
				setLeafKV(left, nl+j, leafKey(right, j), leafVal(right, j))
			}
			setCount(left, nl+nr)
			setNextLeaf(left, nextLeaf(right))
			rAddr := right.Addr()
			t.cache.Unpin(right)
			t.cache.Drop(rAddr)
			t.vol.Free(rAddr)
			t.removeSeparator(p, li)
			return nil
		}
		// Redistribute evenly across the pair.
		keys := make([]uint64, 0, nl+nr)
		vals := make([]uint64, 0, nl+nr)
		for j := 0; j < nl; j++ {
			keys = append(keys, leafKey(left, j))
			vals = append(vals, leafVal(left, j))
		}
		for j := 0; j < nr; j++ {
			keys = append(keys, leafKey(right, j))
			vals = append(vals, leafVal(right, j))
		}
		half := (nl + nr + 1) / 2
		for j := 0; j < half; j++ {
			setLeafKV(left, j, keys[j], vals[j])
		}
		setCount(left, half)
		for j := half; j < len(keys); j++ {
			setLeafKV(right, j-half, keys[j], vals[j])
		}
		setCount(right, len(keys)-half)
		setIntKey(p, li, leafKey(right, 0))
		t.cache.Unpin(right)
		return nil
	}

	// Internal children: the separator key participates.
	nl, nr := count(left), count(right)
	sep := intKey(p, li)
	if nl+nr+1 <= t.keyCap {
		// Merge: left keys + separator + right keys; children concatenate.
		setIntKey(left, nl, sep)
		for j := 0; j < nr; j++ {
			setIntKey(left, nl+1+j, intKey(right, j))
		}
		for j := 0; j <= nr; j++ {
			t.setChild(left, nl+1+j, t.child(right, j))
		}
		setCount(left, nl+nr+1)
		rAddr := right.Addr()
		t.cache.Unpin(right)
		t.cache.Drop(rAddr)
		t.vol.Free(rAddr)
		t.removeSeparator(p, li)
		return nil
	}
	// Redistribute through the separator.
	keys := make([]uint64, 0, nl+nr+1)
	kids := make([]int64, 0, nl+nr+2)
	for j := 0; j < nl; j++ {
		keys = append(keys, intKey(left, j))
	}
	for j := 0; j <= nl; j++ {
		kids = append(kids, t.child(left, j))
	}
	keys = append(keys, sep)
	for j := 0; j < nr; j++ {
		keys = append(keys, intKey(right, j))
	}
	for j := 0; j <= nr; j++ {
		kids = append(kids, t.child(right, j))
	}
	half := len(keys) / 2
	for j := 0; j < half; j++ {
		setIntKey(left, j, keys[j])
	}
	for j := 0; j <= half; j++ {
		t.setChild(left, j, kids[j])
	}
	setCount(left, half)
	newSep := keys[half]
	rest := keys[half+1:]
	for j := 0; j < len(rest); j++ {
		setIntKey(right, j, rest[j])
	}
	for j := 0; j < len(kids)-half-1; j++ {
		t.setChild(right, j, kids[half+1+j])
	}
	setCount(right, len(rest))
	setIntKey(p, li, newSep)
	t.cache.Unpin(right)
	return nil
}

// removeSeparator deletes separator key li and child li+1 from p.
func (t *Tree) removeSeparator(p *cache.Page, li int) {
	n := count(p)
	for j := li; j < n-1; j++ {
		setIntKey(p, j, intKey(p, j+1))
	}
	for j := li + 1; j < n; j++ {
		t.setChild(p, j, t.child(p, j+1))
	}
	setCount(p, n-1)
}
