// Package buffertree implements Arge's buffer tree, the survey's batched
// alternative to the B-tree: updates are appended to per-node buffers and
// pushed down the tree one block at a time, so N inserts and deletes cost
// Θ((N/B)·log_m(N/B)) I/Os in total — an amortised O((1/B)·log_m n) per
// operation, a factor ≈ B/log better than a B-tree's Θ(log_B N) per insert
// (experiment T6).
//
// This implementation is an online distribution tree: every node owns an
// on-disk buffer of timestamped operations; when a buffer exceeds its
// capacity it is emptied into the node's children (splitting leaves as the
// tree deepens). Seal is the survey's offline flush: it drains every
// buffer and emits the final sorted key/value file, the classic use
// driving batched problems (sorting, sweeps, bulk index construction).
//
// SealOps, Run and ReleaseBuffers drain to a sorted run of resolved
// operations with delete tombstones kept. No library code calls them; they
// are kept for the repo benchmark's buffer-tree probe until its re-baseline.
package buffertree

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// ErrSealed reports an update to a sealed tree.
var ErrSealed = errors.New("buffertree: tree already sealed")

// Op is one buffered operation. Seq orders operations on the same key
// across the tree; its low bit marks deletions.
type Op struct {
	Key uint64
	Val uint64
	Seq uint64 // (sequence << 1) | delete-bit
}

// Deleted reports whether the operation is a delete tombstone.
func (o Op) Deleted() bool { return o.Seq&1 == 1 }

// opCodec encodes Op in 24 bytes.
type opCodec struct{}

func (opCodec) Size() int { return 24 }
func (opCodec) Encode(b []byte, o Op) {
	binary.LittleEndian.PutUint64(b[0:8], o.Key)
	binary.LittleEndian.PutUint64(b[8:16], o.Val)
	binary.LittleEndian.PutUint64(b[16:24], o.Seq)
}
func (opCodec) Decode(b []byte) Op {
	return Op{
		Key: binary.LittleEndian.Uint64(b[0:8]),
		Val: binary.LittleEndian.Uint64(b[8:16]),
		Seq: binary.LittleEndian.Uint64(b[16:24]),
	}
}

// Config tunes the tree's shape.
type Config struct {
	// Fanout is the number of children per internal node (the survey's
	// Θ(m)). Zero picks a value from the pool size.
	Fanout int
	// BufferRecords is each node's buffer capacity (the survey's Θ(M)).
	// Zero picks a value from the pool size.
	BufferRecords int
}

// node is one buffer-tree node. splitters and children are empty for
// leaves. The buffer file lives on disk; only this constant-size header is
// in memory (as the survey assumes for the O(N/B)-node catalog).
type node struct {
	buf       *stream.File[Op]
	splitters []uint64
	children  []*node
}

// Tree is a buffer tree accepting Insert and Delete until Seal.
type Tree struct {
	vol    *pdm.Volume
	pool   *pdm.Pool
	cfg    Config
	root   *node
	rootW  *stream.Writer[Op]
	seq    uint64
	frozen bool // updates refused: a drain has begun
	sealed bool
	broken error // sticky: a failed flush leaves buffers duplicated below
	ops    int64
}

// New creates an empty buffer tree.
func New(vol *pdm.Volume, pool *pdm.Pool, cfg Config) (*Tree, error) {
	if cfg.Fanout == 0 {
		cfg.Fanout = pool.Capacity() - 4
	}
	if cfg.BufferRecords == 0 {
		per := vol.BlockBytes() / (opCodec{}).Size()
		cfg.BufferRecords = (pool.Capacity() - 4) * per
	}
	if cfg.Fanout < 2 {
		return nil, fmt.Errorf("buffertree: fanout must be >= 2, got %d", cfg.Fanout)
	}
	if cfg.BufferRecords < 2 {
		return nil, fmt.Errorf("buffertree: buffer must hold >= 2 records, got %d", cfg.BufferRecords)
	}
	t := &Tree{vol: vol, pool: pool, cfg: cfg}
	t.root = &node{buf: stream.NewFile[Op](vol, opCodec{})}
	w, err := stream.NewWriter(t.root.buf, pool)
	if err != nil {
		return nil, err
	}
	t.rootW = w
	return t, nil
}

// Ops returns the number of operations accepted so far.
func (t *Tree) Ops() int64 { return t.ops }

// Insert buffers an insertion of (key, val). Later operations on the same
// key win.
func (t *Tree) Insert(key, val uint64) error {
	return t.push(Op{Key: key, Val: val, Seq: t.nextSeq(false)})
}

// Delete buffers a deletion of key. Deleting an absent key is a no-op at
// seal time.
func (t *Tree) Delete(key uint64) error {
	return t.push(Op{Key: key, Seq: t.nextSeq(true)})
}

func (t *Tree) nextSeq(del bool) uint64 {
	t.seq++
	s := t.seq << 1
	if del {
		s |= 1
	}
	return s
}

func (t *Tree) push(o Op) error {
	if t.frozen {
		return ErrSealed
	}
	if t.broken != nil {
		return t.broken
	}
	if err := t.rootW.Append(o); err != nil {
		t.broken = err
		return err
	}
	t.ops++
	if t.root.buf.Len() >= int64(t.cfg.BufferRecords) {
		// Re-open the root writer around the flush. Any failure below
		// poisons the tree for further updates: a partial flush may leave
		// ops duplicated between a node and its children (harmless for
		// draining, which resolves by Seq, but not for going on accepting
		// writes through a writer of unknown state).
		if err := t.rootW.Close(); err != nil {
			t.rootW = nil
			t.broken = err
			return err
		}
		t.rootW = nil
		if err := t.flush(t.root); err != nil {
			t.broken = err
			return err
		}
		w, err := stream.NewWriter(t.root.buf, t.pool)
		if err != nil {
			t.broken = err
			return err
		}
		t.rootW = w
	}
	return nil
}

// flush empties n's buffer into its children, splitting n if it is a leaf.
// Children that overflow are flushed recursively.
func (t *Tree) flush(n *node) error {
	if n.buf.Len() == 0 {
		return nil
	}
	if len(n.children) == 0 {
		if err := t.splitLeaf(n); err != nil {
			return err
		}
		// splitLeaf distributed the buffer; nothing left to flush here.
		return nil
	}
	if err := t.distribute(n); err != nil {
		return err
	}
	for _, c := range n.children {
		if c.buf.Len() >= int64(t.cfg.BufferRecords) {
			if err := t.flush(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// splitLeaf converts an overflowing leaf into an internal node: its buffer
// is loaded (it holds Θ(M) records, which fit in memory by construction),
// sorted, and cut into fanout children by evenly spaced splitters. The old
// buffer is replaced only after the partitioned copies are durable, so a
// mid-pass failure leaves every op still reachable (duplicated at worst)
// and no block unreferenced.
func (t *Tree) splitLeaf(n *node) error {
	ops, err := stream.ToSlice(n.buf, t.pool)
	if err != nil {
		return err
	}
	slices.SortFunc(ops, opOrder)
	f := t.cfg.Fanout
	n.splitters = make([]uint64, 0, f-1)
	for i := 1; i < f; i++ {
		n.splitters = append(n.splitters, ops[i*len(ops)/f].Key)
	}
	// Deduplicate splitters (heavy duplicate keys); fewer children result.
	n.splitters = dedupe(n.splitters)
	n.children = make([]*node, len(n.splitters)+1)
	for i := range n.children {
		n.children[i] = &node{buf: stream.NewFile[Op](t.vol, opCodec{})}
	}
	if err := t.writePartitioned(ops, n); err != nil {
		return err
	}
	old := n.buf
	n.buf = stream.NewFile[Op](t.vol, opCodec{})
	old.Release()
	return nil
}

func dedupe(xs []uint64) []uint64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// childIndex returns which child of n receives key k.
func childIndex(n *node, k uint64) int {
	return sort.Search(len(n.splitters), func(i int) bool { return k < n.splitters[i] })
}

// distribute streams n's buffer into its children's buffers and empties it.
// Every child writer is closed on every path — a Close failure must not
// strand the remaining writers' frames.
func (t *Tree) distribute(n *node) error {
	writers := make([]*stream.Writer[Op], len(n.children))
	closeAll := func() error {
		var first error
		for i, w := range writers {
			if w == nil {
				continue
			}
			writers[i] = nil
			if err := w.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i, c := range n.children {
		w, err := stream.NewWriter(c.buf, t.pool)
		if err != nil {
			closeAll()
			return err
		}
		writers[i] = w
	}
	err := stream.ForEach(n.buf, t.pool, func(o Op) error {
		return writers[childIndex(n, o.Key)].Append(o)
	})
	if cerr := closeAll(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	old := n.buf
	n.buf = stream.NewFile[Op](t.vol, opCodec{})
	old.Release()
	return nil
}

// writePartitioned appends in-memory ops to the children of n.
func (t *Tree) writePartitioned(ops []Op, n *node) error {
	cur := -1
	var w *stream.Writer[Op]
	defer func() {
		if w != nil {
			w.Close()
		}
	}()
	for _, o := range ops {
		ci := childIndex(n, o.Key)
		if ci != cur {
			if w != nil {
				if err := w.Close(); err != nil {
					w = nil
					return err
				}
			}
			var err error
			w, err = stream.NewWriter(n.children[ci].buf, t.pool)
			if err != nil {
				w = nil
				return err
			}
			cur = ci
		}
		if err := w.Append(o); err != nil {
			return err
		}
	}
	if w != nil {
		err := w.Close()
		w = nil
		return err
	}
	return nil
}

// freeze refuses further updates and closes the root writer, returning
// its frames, while every buffer stays in place for the drain. Idempotent.
func (t *Tree) freeze() error {
	t.frozen = true
	if t.rootW != nil {
		err := t.rootW.Close()
		t.rootW = nil
		if err != nil {
			t.broken = err
		}
	}
	return t.broken
}

// Seal drains every buffer and returns the final key/value pairs as a file
// sorted by key, with deletions applied and the latest operation per key
// winning. The tree cannot accept further updates. On success the tree's
// buffer blocks are released; on failure the partial output is released,
// the drain's frames are returned, and the buffers stay intact, so the
// caller's Pool.Free is exactly restored and Seal may be retried.
func (t *Tree) Seal() (*stream.File[record.Record], error) {
	if t.sealed {
		return nil, ErrSealed
	}
	if err := t.freeze(); err != nil {
		return nil, err
	}
	out := stream.NewFile[record.Record](t.vol, record.RecordCodec{})
	w, err := stream.NewWriter(out, t.pool)
	if err != nil {
		return nil, err
	}
	err = t.drainAll(func(leafOps []Op) error {
		return resolveOps(leafOps, func(o Op) error {
			if o.Deleted() {
				return nil
			}
			return w.Append(record.Record{Key: o.Key, Val: o.Val})
		})
	})
	if err == nil {
		err = w.Close()
	} else {
		w.Close()
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	t.sealed = true
	t.ReleaseBuffers()
	return out, nil
}

// SealOps drains every buffer into a sorted run of resolved operations:
// one op per buffered key, newest by Seq, delete tombstones kept. The
// drain is non-destructive: the tree's buffers remain until the caller
// releases them with ReleaseBuffers. On failure the partial run is
// released and every frame returned; the caller may retry.
func (t *Tree) SealOps() (*Run, error) {
	if t.sealed {
		return nil, ErrSealed
	}
	if err := t.freeze(); err != nil {
		return nil, err
	}
	out := stream.NewFile[Op](t.vol, opCodec{})
	w, err := stream.NewWriter(out, t.pool)
	if err != nil {
		return nil, err
	}
	err = t.drainAll(func(leafOps []Op) error {
		return resolveOps(leafOps, w.Append)
	})
	if err == nil {
		err = w.Close()
	} else {
		w.Close()
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	t.sealed = true
	return &Run{file: out}, nil
}

// ReleaseBuffers returns every buffer block (and the root writer's frames,
// if no drain has begun) to the volume and pool. The tree accepts no
// further operations. It is the counterpart of SealOps's non-destructive
// drain, and the teardown path for abandoning a tree part-way.
func (t *Tree) ReleaseBuffers() {
	t.frozen, t.sealed = true, true
	if t.rootW != nil {
		t.rootW.Close()
		t.rootW = nil
	}
	var walk func(n *node)
	walk = func(n *node) {
		n.buf.Release()
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
}

// drainAll walks the tree in key order, handing each leaf's operations
// (its own buffer plus everything pushed down from ancestors, unresolved
// and unsorted) to emit. Buffers are read, never released — the caller
// decides when the tree's blocks go (ReleaseBuffers).
func (t *Tree) drainAll(emit func([]Op) error) error {
	return t.drainNode(t.root, nil, emit)
}

func (t *Tree) drainNode(n *node, pending []Op, emit func([]Op) error) error {
	ops, err := stream.ToSlice(n.buf, t.pool)
	if err != nil {
		return err
	}
	ops = append(ops, pending...)
	if len(n.children) == 0 {
		return emit(ops)
	}
	// Partition the residue among children and recurse in key order.
	parts := make([][]Op, len(n.children))
	for _, o := range ops {
		ci := childIndex(n, o.Key)
		parts[ci] = append(parts[ci], o)
	}
	for i, c := range n.children {
		if err := t.drainNode(c, parts[i], emit); err != nil {
			return err
		}
	}
	return nil
}

// opOrder orders operations by (key, seq).
func opOrder(a, b Op) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// resolveOps sorts ops by (key, seq) and hands the newest operation per
// key to fn in ascending key order — last-writer-wins by Seq, which holds
// across splitLeaf/distribute repartitioning (seqs are monotone). A
// partial flush may leave the same (key, seq) op duplicated between a
// node and its children; duplicates sort adjacent and collapse here.
func resolveOps(ops []Op, fn func(Op) error) error {
	slices.SortFunc(ops, opOrder)
	for i := 0; i < len(ops); {
		j := i
		for j < len(ops) && ops[j].Key == ops[i].Key {
			j++
		}
		if err := fn(ops[j-1]); err != nil { // highest sequence number wins
			return err
		}
		i = j
	}
	return nil
}
