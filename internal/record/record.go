// Package record defines the fixed-size record types and binary codecs used
// throughout the external-memory algorithm suite.
//
// The Parallel Disk Model measures everything in records, so every type
// stored on a pdm.Volume has a Codec that fixes its exact byte width. All
// encodings are little-endian and allocation-free; no reflection is used.
package record

import (
	"cmp"
	"encoding/binary"
)

// Codec converts values of type T to and from their fixed-width binary form.
// Size must be constant for all values, and Encode/Decode must be exact
// inverses.
type Codec[T any] interface {
	// Size returns the encoded width in bytes, constant for the codec.
	Size() int
	// Encode writes v into b[:Size()].
	Encode(b []byte, v T)
	// Decode reads a value from b[:Size()].
	Decode(b []byte) T
}

// Record is the workhorse 16-byte key/value record: a uint64 sort key and a
// uint64 payload (commonly a row id or a pointer).
type Record struct {
	Key uint64
	Val uint64
}

// Less orders records by key, breaking ties by value so that sorting is
// deterministic.
func (r Record) Less(o Record) bool {
	if r.Key != o.Key {
		return r.Key < o.Key
	}
	return r.Val < o.Val
}

// Compare is Less as a three-way comparison: cmp.Compare on Key, then on
// Val. It returns 0 only for records equal in bytes, so a sort by it emits
// the same sequence whether or not it is stable.
func Compare(a, b Record) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Val, b.Val)
}

// RecordCodec encodes Record in 16 bytes.
type RecordCodec struct{}

// Size implements Codec.
func (RecordCodec) Size() int { return 16 }

// Encode implements Codec.
func (RecordCodec) Encode(b []byte, r Record) {
	binary.LittleEndian.PutUint64(b[0:8], r.Key)
	binary.LittleEndian.PutUint64(b[8:16], r.Val)
}

// Decode implements Codec.
func (RecordCodec) Decode(b []byte) Record {
	return Record{
		Key: binary.LittleEndian.Uint64(b[0:8]),
		Val: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// U64Codec encodes a bare uint64 in 8 bytes.
type U64Codec struct{}

// Size implements Codec.
func (U64Codec) Size() int { return 8 }

// Encode implements Codec.
func (U64Codec) Encode(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// Decode implements Codec.
func (U64Codec) Decode(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// Pair is a generic two-field record of int64s, used by the graph and list
// algorithms for (node, pointer) and (src, dst) tuples.
type Pair struct {
	A int64
	B int64
}

// PairCodec encodes Pair in 16 bytes.
type PairCodec struct{}

// Size implements Codec.
func (PairCodec) Size() int { return 16 }

// Encode implements Codec.
func (PairCodec) Encode(b []byte, p Pair) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(p.A))
	binary.LittleEndian.PutUint64(b[8:16], uint64(p.B))
}

// Decode implements Codec.
func (PairCodec) Decode(b []byte) Pair {
	return Pair{
		A: int64(binary.LittleEndian.Uint64(b[0:8])),
		B: int64(binary.LittleEndian.Uint64(b[8:16])),
	}
}

// Triple is a three-field record of int64s, used by list ranking ("node,
// successor, rank") and by graph edge lists carrying weights or labels.
type Triple struct {
	A int64
	B int64
	C int64
}

// TripleCodec encodes Triple in 24 bytes.
type TripleCodec struct{}

// Size implements Codec.
func (TripleCodec) Size() int { return 24 }

// Encode implements Codec.
func (TripleCodec) Encode(b []byte, t Triple) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(t.A))
	binary.LittleEndian.PutUint64(b[8:16], uint64(t.B))
	binary.LittleEndian.PutUint64(b[16:24], uint64(t.C))
}

// Decode implements Codec.
func (TripleCodec) Decode(b []byte) Triple {
	return Triple{
		A: int64(binary.LittleEndian.Uint64(b[0:8])),
		B: int64(binary.LittleEndian.Uint64(b[8:16])),
		C: int64(binary.LittleEndian.Uint64(b[16:24])),
	}
}

// F64Codec encodes a float64 in 8 bytes, for geometric coordinates.
type F64Codec struct{}

// Size implements Codec.
func (F64Codec) Size() int { return 8 }

// Encode implements Codec.
func (F64Codec) Encode(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, mathFloat64bits(v))
}

// Decode implements Codec.
func (F64Codec) Decode(b []byte) float64 {
	return mathFloat64frombits(binary.LittleEndian.Uint64(b))
}
