package store

import (
	"math/bits"
	"slices"
)

// Op is one buffered operation, 24 bytes: a key, its value, and the
// store-wide sequence number encoded (seq << 1) | delete-bit, so of two
// operations on one key the one with the larger Seq is the newer.
type Op struct {
	Key uint64
	Val uint64
	Seq uint64
}

// Deleted reports whether the operation is a delete tombstone.
func (o Op) Deleted() bool { return o.Seq&1 == 1 }

// chunkOps is the capacity of one overlay chunk, picked by measurement
// (BenchmarkOverlay at a 32 768-op front, chunks of 32, 64, 128 and 256):
// 64 and 128 tie on put, 64 leads on get; at 32 the directory's own
// inserts show in put (+10 %), at 256 the memmove behind an insert into
// the middle of a chunk does (+20 %). At 64 the directory of a full front
// is 512 to 1 024 keys — 4 to 8 KiB, cache-resident — and a chunk 1.5 KiB.
const chunkOps = 64

// overlay holds one write front's resolved operations in memory — the
// newest op per key, in key order — as a two-level sorted array: chunks
// of at most chunkOps ops, and a directory of their first keys kept in
// one contiguous slice so the top-level search touches one small array.
// A full chunk splits in half, so chunks run between half and completely
// full (24 to 48 bytes per op). put and a finger's probe cost O(log F) for a
// front of F ops, appendRange O(log F + k) for k results.
//
// An overlay is not safe for concurrent use; the store guards it with mu
// until it is sealed, and never writes it after that.
type overlay struct {
	first  []uint64 // first[c] == chunks[c][0].Key
	chunks [][]Op   // each key-sorted and non-empty
}

// The two binary searches below take each comparison as a number — the
// borrow of a 64-bit subtract — and step by arithmetic on it. Written as
// `if first[mid] <= key { base = mid }` the step compiles to a branch (the
// compiler keeps conditional moves out of load addresses), which a probe
// for an arbitrary key mispredicts every other time: twice the cost of the
// whole search, measured.

// chunkOf returns the chunk a key belongs to: the last one whose first key
// is at most key, or chunk 0 for a key below every chunk. first must not
// be empty.
func chunkOf(first []uint64, key uint64) int {
	base, n := 0, len(first)
	for n > 1 {
		half := n >> 1
		_, below := bits.Sub64(key, first[base+half], 0) // 1 when key < first[base+half]
		base += half & (int(below) - 1)
		n -= half
	}
	return base
}

// lowerBound returns the first index of ch whose key is at least key.
func lowerBound(ch []Op, key uint64) int {
	base, n := 0, len(ch)
	for n > 1 {
		half := n >> 1
		_, below := bits.Sub64(ch[base+half-1].Key, key, 0) // 1 when ch[base+half-1].Key < key
		base += half & -int(below)
		n -= half
	}
	if n == 1 && ch[base].Key < key {
		base++
	}
	return base
}

// put records op as the newest operation on its key.
func (o *overlay) put(op Op) {
	if len(o.chunks) == 0 {
		ch := make([]Op, 1, chunkOps)
		ch[0] = op
		o.first = append(o.first, op.Key)
		o.chunks = append(o.chunks, ch)
		return
	}
	c := chunkOf(o.first, op.Key)
	ch := o.chunks[c]
	i := lowerBound(ch, op.Key)
	if i < len(ch) && ch[i].Key == op.Key {
		ch[i] = op
		return
	}
	if len(ch) == chunkOps {
		const half = chunkOps / 2
		right := make([]Op, half, chunkOps)
		copy(right, ch[half:])
		o.chunks[c] = ch[:half]
		o.first = slices.Insert(o.first, c+1, right[0].Key)
		o.chunks = slices.Insert(o.chunks, c+1, right)
		if i > half {
			c, i = c+1, i-half
		}
		ch = o.chunks[c]
	}
	ch = ch[:len(ch)+1]
	copy(ch[i+1:], ch[i:])
	ch[i] = op
	o.chunks[c] = ch
	if i == 0 {
		o.first[c] = op.Key
	}
}

// appendRange appends the operations with keys in [lo, hi] to dst in key
// order. A nil overlay holds none.
func (o *overlay) appendRange(dst []Op, lo, hi uint64) []Op {
	if o == nil || len(o.first) == 0 || lo > hi {
		return dst
	}
	c := chunkOf(o.first, lo)
	i := lowerBound(o.chunks[c], lo)
	for ; c < len(o.chunks); c++ {
		ch := o.chunks[c]
		if ch[len(ch)-1].Key > hi {
			// hi+1 cannot overflow: some key exceeds hi.
			return append(dst, ch[i:i+lowerBound(ch[i:], hi+1)]...)
		}
		dst = append(dst, ch[i:]...)
		i = 0
	}
	return dst
}

// finger probes one overlay for a run of keys. While the keys do not
// descend — the sorted sub-batches shard.fanOutBatch hands the store — each
// probe continues from where the last one ended, galloping forward over
// the chunk directory, so a batch costs O(log distance) per key rather
// than O(log F). A probe from the first chunk — a fresh finger's, or a key
// below its predecessor's — searches the whole directory instead: a gallop
// from the start would cost it twice the comparisons.
//
// The zero position (chunk 0, index 0, last key 0) is the start, so a new
// finger needs only its overlay.
type finger struct {
	o    *overlay
	c, i int    // where the last probe ended: chunk, position within it
	last uint64 // the key it was for
}

// get returns the newest operation on key, if the overlay holds one,
// searching from the finger's position.
func (f *finger) get(key uint64) (Op, bool) {
	first := f.o.first
	if len(first) == 0 || key < first[0] {
		return Op{}, false // the position stands: it is still that of last
	}
	c, i := f.c, f.i
	if c == 0 || key < f.last {
		c, i = chunkOf(first, key), 0
	} else if c+1 < len(first) && first[c+1] <= key {
		// The key lies in a later chunk: double the stride until the
		// directory overshoots it, then search the last stride.
		lo, step := c+1, 1
		for lo+step < len(first) && first[lo+step] <= key {
			lo += step
			step <<= 1
		}
		c = lo + chunkOf(first[lo:min(lo+step, len(first))], key)
		i = 0
	}
	ch := f.o.chunks[c]
	i += lowerBound(ch[i:], key)
	f.c, f.i, f.last = c, i, key
	if i < len(ch) && ch[i].Key == key {
		return ch[i], true
	}
	return Op{}, false
}
