// Package emtree implements the survey's Euler-tour technique for external
// tree computations: a rooted tree stored as an on-disk edge list is
// linearised into an Euler tour (a linked list of directed arcs) using
// O(Sort(N)) I/Os, after which weighted list ranking answers the classical
// batch queries — every node's depth and every node's subtree size — also
// in O(Sort(N)) I/Os. Pointer-chasing alternatives would pay Θ(N) I/Os.
//
// The tour of a tree with E = N-1 edges has 2E arcs: arc 2i travels edge i
// downward (parent to child) and arc 2i+1 travels it upward. The successor
// structure is computed with three sorted scans and two merge joins; no
// per-node state is held in memory beyond the constant-size scan frames.
package emtree

import (
	"errors"
	"fmt"

	"em/internal/extsort"
	"em/internal/listrank"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// ErrBadTree reports a malformed parent/child edge list.
var ErrBadTree = errors.New("emtree: malformed tree")

// Tour is an Euler tour of a rooted tree, ready for list ranking.
type Tour struct {
	// Arcs holds one (arc, succArc, delta) triple per directed arc, where
	// delta is +1 for down arcs (even ids) and -1 for up arcs (odd ids),
	// and succArc is listrank.Tail for the final arc of the tour.
	Arcs *stream.File[record.Triple]
	// DownArcChild maps down arcs to the child node they enter: one
	// (downArcID, child) pair per tree edge, sorted by arc id.
	DownArcChild *stream.File[record.Pair]
	// Head is the first arc of the tour (the root's first down arc).
	Head int64
	// Root is the tree's root node.
	Root int64
	// N is the number of nodes.
	N int64
}

// Release frees the tour's files.
func (t *Tour) Release() {
	t.Arcs.Release()
	t.DownArcChild.Release()
}

// BuildEulerTour linearises a rooted tree given as (parent, child) pairs
// over nodes 0..n-1. Every node except root must appear exactly once as a
// child. The construction performs a constant number of sorts and merge
// scans: O(Sort(N)) I/Os.
func BuildEulerTour(edges *stream.File[record.Pair], pool *pdm.Pool, n, root int64) (*Tour, error) {
	vol := edges.Vol()
	if edges.Len() != n-1 {
		return nil, fmt.Errorf("%w: %d edges for %d nodes", ErrBadTree, edges.Len(), n)
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("%w: root %d out of range", ErrBadTree, root)
	}

	// E: edges sorted by (parent, child); the position in E is the edge id.
	e, err := extsort.MergeSort(edges, pool, func(a, b record.Pair) bool {
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	}, nil)
	if err != nil {
		return nil, err
	}

	// One pass over E derives, per edge i: the parent p_i, child c_i, and
	// the next-sibling edge id (or -1). Simultaneously emit FC = (node,
	// firstChildEdge) per parent run — already sorted by node since E is
	// sorted by parent — and PE = (child, edgeID) for a later sort.
	type scanOut struct {
		fc *stream.File[record.Pair] // (parent, first child edge)
		pe *stream.File[record.Pair] // (child, edge id), unsorted by child
		ns *stream.File[record.Pair] // (edge id, next sibling edge id or -1)
	}
	so := scanOut{
		fc: stream.NewFile[record.Pair](vol, record.PairCodec{}),
		pe: stream.NewFile[record.Pair](vol, record.PairCodec{}),
		ns: stream.NewFile[record.Pair](vol, record.PairCodec{}),
	}
	fcw, err := stream.NewWriter(so.fc, pool)
	if err != nil {
		return nil, err
	}
	pew, err := stream.NewWriter(so.pe, pool)
	if err != nil {
		fcw.Close()
		return nil, err
	}
	nsw, err := stream.NewWriter(so.ns, pool)
	if err != nil {
		fcw.Close()
		pew.Close()
		return nil, err
	}
	closeScan := func() {
		fcw.Close()
		pew.Close()
		nsw.Close()
	}
	var prev record.Pair
	havePrev := false
	idx := int64(0)
	err = stream.ForEach(e, pool, func(p record.Pair) error {
		if p.B == root {
			return fmt.Errorf("%w: root %d appears as a child", ErrBadTree, root)
		}
		if p.A < 0 || p.A >= n || p.B < 0 || p.B >= n {
			return fmt.Errorf("%w: edge (%d,%d) out of range", ErrBadTree, p.A, p.B)
		}
		if havePrev && prev == p {
			return fmt.Errorf("%w: duplicate edge (%d,%d)", ErrBadTree, p.A, p.B)
		}
		if err := pew.Append(record.Pair{A: p.B, B: idx}); err != nil {
			return err
		}
		if !havePrev || prev.A != p.A {
			if err := fcw.Append(record.Pair{A: p.A, B: idx}); err != nil {
				return err
			}
		}
		if havePrev && prev.A == p.A {
			if err := nsw.Append(record.Pair{A: idx - 1, B: idx}); err != nil {
				return err
			}
		}
		if havePrev && prev.A != p.A {
			if err := nsw.Append(record.Pair{A: idx - 1, B: -1}); err != nil {
				return err
			}
		}
		prev, havePrev = p, true
		idx++
		return nil
	})
	if err != nil {
		closeScan()
		return nil, err
	}
	if havePrev {
		if err := nsw.Append(record.Pair{A: idx - 1, B: -1}); err != nil {
			closeScan()
			return nil, err
		}
	}
	closeScan()

	// PE sorted by child: each node's unique incoming edge. This is also
	// the down-arc→child map once arc ids are applied.
	pe, err := extsort.MergeSort(so.pe, pool, func(a, b record.Pair) bool { return a.A < b.A }, nil)
	if err != nil {
		return nil, err
	}
	so.pe.Release()
	// Validate: every non-root node appears exactly once as a child.
	var lastChild int64 = -1
	dup := false
	if err := stream.ForEach(pe, pool, func(p record.Pair) error {
		if p.A == lastChild {
			dup = true
		}
		lastChild = p.A
		return nil
	}); err != nil {
		return nil, err
	}
	if dup {
		return nil, fmt.Errorf("%w: a node has two parents", ErrBadTree)
	}

	// succDown: succ(down(i)) = down(firstChild(c_i)) or up(i).
	// Computed by merging PE (child-sorted: one request per edge, keyed by
	// its child) with FC (node-sorted first-child map).
	succDown, err := joinSuccDown(vol, pool, pe, so.fc)
	if err != nil {
		return nil, err
	}
	// succUp: succ(up(i)) = down(nextSibling(i)) if any, else
	// up(incomingEdge(p_i)) if p_i != root, else Tail.
	succUp, err := joinSuccUp(vol, pool, e, so.ns, pe, root)
	if err != nil {
		return nil, err
	}
	so.fc.Release()
	so.ns.Release()

	// Assemble the arc file sorted by arc id: merge the down and up
	// successor files (down arcs even, up arcs odd, both emitted in edge
	// order, so an alternating merge is a single scan).
	arcs := stream.NewFile[record.Triple](vol, record.TripleCodec{})
	aw, err := stream.NewWriter(arcs, pool)
	if err != nil {
		return nil, err
	}
	dr, err := stream.NewReader(succDown, pool)
	if err != nil {
		aw.Close()
		return nil, err
	}
	defer dr.Close()
	ur, err := stream.NewReader(succUp, pool)
	if err != nil {
		aw.Close()
		return nil, err
	}
	defer ur.Close()
	for i := int64(0); i < n-1; i++ {
		d, ok, err := dr.Next()
		if err != nil || !ok {
			aw.Close()
			return nil, fmt.Errorf("emtree: down succ stream ended early (err=%v)", err)
		}
		u, ok, err := ur.Next()
		if err != nil || !ok {
			aw.Close()
			return nil, fmt.Errorf("emtree: up succ stream ended early (err=%v)", err)
		}
		if err := aw.Append(record.Triple{A: d.A, B: d.B, C: +1}); err != nil {
			aw.Close()
			return nil, err
		}
		if err := aw.Append(record.Triple{A: u.A, B: u.B, C: -1}); err != nil {
			aw.Close()
			return nil, err
		}
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	succDown.Release()
	succUp.Release()

	// The head arc is the root's first down arc: the first edge in the
	// (parent, child)-sorted list whose parent is the root.
	head := int64(-1)
	found := false
	i := int64(0)
	if err := stream.ForEach(e, pool, func(p record.Pair) error {
		if !found && p.A == root {
			head = 2 * i
			found = true
		}
		i++
		return nil
	}); err != nil {
		return nil, err
	}
	if !found && n > 1 {
		return nil, fmt.Errorf("%w: root %d has no children but tree has %d nodes", ErrBadTree, root, n)
	}

	// The down-arc→child map is PE with edge ids doubled, re-sorted by arc.
	dac := stream.NewFile[record.Pair](vol, record.PairCodec{})
	dw, err := stream.NewWriter(dac, pool)
	if err != nil {
		return nil, err
	}
	if err := stream.ForEach(pe, pool, func(p record.Pair) error {
		return dw.Append(record.Pair{A: 2 * p.B, B: p.A})
	}); err != nil {
		dw.Close()
		return nil, err
	}
	if err := dw.Close(); err != nil {
		return nil, err
	}
	sortedDac, err := extsort.MergeSort(dac, pool, func(a, b record.Pair) bool { return a.A < b.A }, nil)
	if err != nil {
		return nil, err
	}
	dac.Release()
	pe.Release()
	e.Release()

	return &Tour{Arcs: arcs, DownArcChild: sortedDac, Head: head, Root: root, N: n}, nil
}

// joinSuccDown computes succ(down(i)) for every edge i, returning (downArc,
// succArc) pairs in edge order. pe is (child, edgeID) sorted by child; fc is
// (node, firstChildEdge) sorted by node. The merge needs the output in edge
// order, so the joined result is sorted by edge id afterwards.
func joinSuccDown(vol *pdm.Volume, pool *pdm.Pool, pe, fc *stream.File[record.Pair]) (*stream.File[record.Pair], error) {
	joined := stream.NewFile[record.Pair](vol, record.PairCodec{})
	w, err := stream.NewWriter(joined, pool)
	if err != nil {
		return nil, err
	}
	fr, err := stream.NewReader(fc, pool)
	if err != nil {
		w.Close()
		return nil, err
	}
	defer fr.Close()
	f, fOK, err := fr.Next()
	if err != nil {
		w.Close()
		return nil, err
	}
	if err := stream.ForEach(pe, pool, func(p record.Pair) error {
		child, edge := p.A, p.B
		for fOK && f.A < child {
			f, fOK, err = fr.Next()
			if err != nil {
				return err
			}
		}
		succ := 2*edge + 1 // leaf child: turn straight back up
		if fOK && f.A == child {
			succ = 2 * f.B // descend into the child's first child edge
		}
		return w.Append(record.Pair{A: 2 * edge, B: succ})
	}); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	out, err := extsort.MergeSort(joined, pool, func(a, b record.Pair) bool { return a.A < b.A }, nil)
	if err != nil {
		return nil, err
	}
	joined.Release()
	return out, nil
}

// joinSuccUp computes succ(up(i)) for every edge i, in edge order. e is the
// edge list sorted by (parent, child) (edge order); ns is (edge,
// nextSibling) in edge order; pe is (child, edgeID) sorted by child — used
// to find the parent's own incoming edge.
func joinSuccUp(vol *pdm.Volume, pool *pdm.Pool, e, ns, pe *stream.File[record.Pair], root int64) (*stream.File[record.Pair], error) {
	// Pass 1: for edges with a next sibling the successor is known locally.
	// For the rest we need incoming(parent), a join keyed by parent — and e
	// is already sorted by parent, pe by child, so one merge scan suffices.
	out := stream.NewFile[record.Pair](vol, record.PairCodec{})
	w, err := stream.NewWriter(out, pool)
	if err != nil {
		return nil, err
	}
	er, err := stream.NewReader(e, pool)
	if err != nil {
		w.Close()
		return nil, err
	}
	defer er.Close()
	nr, err := stream.NewReader(ns, pool)
	if err != nil {
		w.Close()
		return nil, err
	}
	defer nr.Close()
	pr, err := stream.NewReader(pe, pool)
	if err != nil {
		w.Close()
		return nil, err
	}
	defer pr.Close()

	pv, pOK, err := pr.Next()
	if err != nil {
		w.Close()
		return nil, err
	}
	idx := int64(0)
	for {
		edge, ok, err := er.Next()
		if err != nil {
			w.Close()
			return nil, err
		}
		if !ok {
			break
		}
		nsRec, ok, err := nr.Next()
		if err != nil || !ok || nsRec.A != idx {
			w.Close()
			return nil, fmt.Errorf("emtree: sibling stream out of sync at edge %d (err=%v)", idx, err)
		}
		var succ int64
		if nsRec.B >= 0 {
			succ = 2 * nsRec.B // next sibling's down arc
		} else if edge.A == root {
			succ = listrank.Tail // tour ends back at the root
		} else {
			// Parent's incoming edge: advance pe (sorted by child) to the
			// parent. Parents appear in non-decreasing order in e, so the
			// merge never rewinds.
			for pOK && pv.A < edge.A {
				pv, pOK, err = pr.Next()
				if err != nil {
					w.Close()
					return nil, err
				}
			}
			if !pOK || pv.A != edge.A {
				w.Close()
				return nil, fmt.Errorf("%w: node %d has children but no parent and is not the root", ErrBadTree, edge.A)
			}
			succ = 2*pv.B + 1 // parent's up arc
		}
		if err := w.Append(record.Pair{A: 2*idx + 1, B: succ}); err != nil {
			w.Close()
			return nil, err
		}
		idx++
	}
	return out, w.Close()
}

// Depths computes every node's depth (root = 0) in O(Sort(N)) I/Os: it
// ranks the Euler tour with ±1 arc weights and reads each node's depth off
// its down arc. The output is (node, depth) sorted by node.
func Depths(t *Tour, pool *pdm.Pool) (*stream.File[record.Pair], error) {
	vol := t.Arcs.Vol()
	out := stream.NewFile[record.Pair](vol, record.PairCodec{})
	w, err := stream.NewWriter(out, pool)
	if err != nil {
		return nil, err
	}
	if err := w.Append(record.Pair{A: t.Root, B: 0}); err != nil {
		w.Close()
		return nil, err
	}
	if t.N > 1 {
		ranks, err := listrank.RankWeighted(t.Arcs, pool, t.Head)
		if err != nil {
			w.Close()
			return nil, err
		}
		// ranks is (arc, depthBeforeArc) sorted by arc; DownArcChild is
		// (downArc, child) sorted by arc: one merge scan joins them.
		rr, err := stream.NewReader(ranks, pool)
		if err != nil {
			w.Close()
			return nil, err
		}
		defer rr.Close()
		rv, rOK, err := rr.Next()
		if err != nil {
			w.Close()
			return nil, err
		}
		if err := stream.ForEach(t.DownArcChild, pool, func(p record.Pair) error {
			for rOK && rv.A < p.A {
				rv, rOK, err = rr.Next()
				if err != nil {
					return err
				}
			}
			if !rOK || rv.A != p.A {
				return fmt.Errorf("emtree: no rank for down arc %d", p.A)
			}
			// rank is the depth when the arc starts (at the parent); the
			// child sits one level deeper.
			return w.Append(record.Pair{A: p.B, B: rv.B + 1})
		}); err != nil {
			w.Close()
			return nil, err
		}
		ranks.Release()
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	res, err := extsort.MergeSort(out, pool, func(a, b record.Pair) bool { return a.A < b.A }, nil)
	if err != nil {
		return nil, err
	}
	out.Release()
	return res, nil
}

// SubtreeSizes computes every node's subtree size (leaves = 1, root = N) in
// O(Sort(N)) I/Os by ranking the tour with unit weights: the positions of a
// node's down and up arcs bracket exactly its subtree's arcs.
func SubtreeSizes(t *Tour, pool *pdm.Pool) (*stream.File[record.Pair], error) {
	vol := t.Arcs.Vol()
	out := stream.NewFile[record.Pair](vol, record.PairCodec{})
	w, err := stream.NewWriter(out, pool)
	if err != nil {
		return nil, err
	}
	if err := w.Append(record.Pair{A: t.Root, B: t.N}); err != nil {
		w.Close()
		return nil, err
	}
	if t.N > 1 {
		// Unit-weight tour: positions instead of depths.
		unit := stream.NewFile[record.Triple](vol, record.TripleCodec{})
		uw, err := stream.NewWriter(unit, pool)
		if err != nil {
			w.Close()
			return nil, err
		}
		if err := stream.ForEach(t.Arcs, pool, func(a record.Triple) error {
			return uw.Append(record.Triple{A: a.A, B: a.B, C: 1})
		}); err != nil {
			uw.Close()
			w.Close()
			return nil, err
		}
		if err := uw.Close(); err != nil {
			w.Close()
			return nil, err
		}
		pos, err := listrank.RankWeighted(unit, pool, t.Head)
		if err != nil {
			w.Close()
			return nil, err
		}
		unit.Release()
		// pos is sorted by arc id; arcs 2i and 2i+1 are adjacent, and
		// pos(up) - pos(down) = 2·size - 1.
		pr, err := stream.NewReader(pos, pool)
		if err != nil {
			w.Close()
			return nil, err
		}
		defer pr.Close()
		cr, err := stream.NewReader(t.DownArcChild, pool)
		if err != nil {
			w.Close()
			return nil, err
		}
		defer cr.Close()
		for {
			down, ok, err := pr.Next()
			if err != nil {
				w.Close()
				return nil, err
			}
			if !ok {
				break
			}
			up, ok, err := pr.Next()
			if err != nil || !ok {
				w.Close()
				return nil, fmt.Errorf("emtree: odd arc count in position file (err=%v)", err)
			}
			child, ok, err := cr.Next()
			if err != nil || !ok || child.A != down.A {
				w.Close()
				return nil, fmt.Errorf("emtree: arc/child misalignment at arc %d (err=%v)", down.A, err)
			}
			size := (up.B - down.B + 1) / 2
			if err := w.Append(record.Pair{A: child.B, B: size}); err != nil {
				w.Close()
				return nil, err
			}
		}
		pos.Release()
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	res, err := extsort.MergeSort(out, pool, func(a, b record.Pair) bool { return a.A < b.A }, nil)
	if err != nil {
		return nil, err
	}
	out.Release()
	return res, nil
}
