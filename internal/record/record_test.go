package record

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRecordCodecRoundTrip(t *testing.T) {
	f := func(k, v uint64) bool {
		var c RecordCodec
		b := make([]byte, c.Size())
		c.Encode(b, Record{Key: k, Val: v})
		got := c.Decode(b)
		return got.Key == k && got.Val == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU64CodecRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		var c U64Codec
		b := make([]byte, c.Size())
		c.Encode(b, v)
		return c.Decode(b) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairCodecRoundTrip(t *testing.T) {
	f := func(a, b int64) bool {
		var c PairCodec
		buf := make([]byte, c.Size())
		c.Encode(buf, Pair{A: a, B: b})
		got := c.Decode(buf)
		return got.A == a && got.B == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTripleCodecRoundTrip(t *testing.T) {
	f := func(a, b, c int64) bool {
		var cd TripleCodec
		buf := make([]byte, cd.Size())
		cd.Encode(buf, Triple{A: a, B: b, C: c})
		got := cd.Decode(buf)
		return got.A == a && got.B == b && got.C == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestF64CodecRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, math.Pi, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	var c F64Codec
	b := make([]byte, c.Size())
	for _, v := range cases {
		c.Encode(b, v)
		if got := c.Decode(b); got != v {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	// NaN round-trips bit-exactly even though NaN != NaN.
	c.Encode(b, math.NaN())
	if !math.IsNaN(c.Decode(b)) {
		t.Fatal("NaN did not survive")
	}
}

func TestRecordLessTotalOrder(t *testing.T) {
	a := Record{Key: 1, Val: 5}
	b := Record{Key: 1, Val: 7}
	c := Record{Key: 2, Val: 0}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("tie-break by value broken")
	}
	if !a.Less(c) || !b.Less(c) {
		t.Fatal("key ordering broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
}

// TestRecordLessTrichotomy checks that exactly one of a.Less(b), b.Less(a)
// and a == b holds, and that Compare's sign says which, both ways round.
// Each draw is also tried with every field reduced mod 3, so equal keys,
// equal values and equal records all occur.
func TestRecordLessTrichotomy(t *testing.T) {
	check := func(a, b Record) bool {
		less, greater := a.Less(b), b.Less(a)
		equal := a == b
		// Exactly one of less, greater, equal.
		n := 0
		if less {
			n++
		}
		if greater {
			n++
		}
		if equal {
			n++
		}
		c, r := Compare(a, b), Compare(b, a)
		return n == 1 && (c < 0) == less && (c > 0) == greater && (c == 0) == equal && r == -c
	}
	f := func(k1, v1, k2, v2 uint64) bool {
		return check(Record{Key: k1, Val: v1}, Record{Key: k2, Val: v2}) &&
			check(Record{Key: k1 % 3, Val: v1 % 3}, Record{Key: k2 % 3, Val: v2 % 3})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecSizesAreConstant(t *testing.T) {
	if (RecordCodec{}).Size() != 16 {
		t.Fatal("RecordCodec size")
	}
	if (U64Codec{}).Size() != 8 {
		t.Fatal("U64Codec size")
	}
	if (PairCodec{}).Size() != 16 {
		t.Fatal("PairCodec size")
	}
	if (TripleCodec{}).Size() != 24 {
		t.Fatal("TripleCodec size")
	}
	if (F64Codec{}).Size() != 8 {
		t.Fatal("F64Codec size")
	}
}
