package record

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestSortMatchesSortFunc checks Sort against slices.SortFunc by Compare
// on inputs that reach each of its paths: the insertion-sort cutoff, the
// jump over bytes every record shares (in Key and in Val), whole-record
// duplicates, already-sorted and reversed input, and full-width keys.
func TestSortMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := map[string]func(i, n int) Record{
		"random":    func(int, int) Record { return Record{Key: rng.Uint64(), Val: rng.Uint64()} },
		"dups":      func(int, int) Record { return Record{Key: uint64(rng.Intn(16)), Val: uint64(rng.Intn(4))} },
		"equal":     func(int, int) Record { return Record{Key: 7, Val: 9} },
		"equal-key": func(int, int) Record { return Record{Key: 1 << 63, Val: rng.Uint64() >> rng.Intn(64)} },
		"sorted":    func(i, _ int) Record { return Record{Key: uint64(i), Val: uint64(i)} },
		"reversed":  func(i, n int) Record { return Record{Key: uint64(n - i), Val: 3} },
		"magnitude": func(int, int) Record {
			return Record{Key: rng.Uint64() >> rng.Intn(64), Val: uint64(rng.Intn(3))}
		},
		"high-byte": func(int, int) Record { return Record{Key: uint64(rng.Intn(3)) << 56, Val: uint64(rng.Intn(300))} },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, radixCutoff, radixCutoff + 1, 1000, 1 << 16} {
			rs := make([]Record, n)
			for i := range rs {
				rs[i] = gen(i, n)
			}
			want := slices.Clone(rs)
			slices.SortFunc(want, Compare)
			Sort(rs)
			if !slices.Equal(rs, want) {
				t.Fatalf("%s n=%d: Sort's order is not slices.SortFunc's", name, n)
			}
		}
	}
}

// TestSortQuick is the same property over arbitrary inputs, each key
// repeated eight times with small values so runs outgrow the cutoff.
func TestSortQuick(t *testing.T) {
	f := func(keys []uint64) bool {
		rs := make([]Record, 0, 8*len(keys))
		for i := range 8 {
			for _, k := range keys {
				rs = append(rs, Record{Key: k >> (k % 64), Val: uint64(i % 3)})
			}
		}
		want := slices.Clone(rs)
		slices.SortFunc(want, Compare)
		Sort(rs)
		return slices.Equal(rs, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSortAllocatesNothing pins the in-place contract the external sorts'
// memory accounting relies on.
func TestSortAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := make([]Record, 1<<14)
	for i := range in {
		in[i] = Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	rs := make([]Record, len(in))
	if a := testing.AllocsPerRun(5, func() {
		copy(rs, in)
		Sort(rs)
	}); a != 0 {
		t.Fatalf("Sort allocated %v times per call", a)
	}
}
