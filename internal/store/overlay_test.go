package store

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// get is the overlay's plain lookup, the reference a finger's probes are
// checked against: the newest operation on key, if the overlay holds one.
func (o *overlay) get(key uint64) (Op, bool) {
	if len(o.first) == 0 || key < o.first[0] {
		return Op{}, false
	}
	ch := o.chunks[chunkOf(o.first, key)]
	if i := lowerBound(ch, key); i < len(ch) && ch[i].Key == key {
		return ch[i], true
	}
	return Op{}, false
}

// refOverlay is the overlay's obvious reference: a hash map, sorted on
// demand.
type refOverlay map[uint64]Op

func (r refOverlay) sorted() []Op {
	out := make([]Op, 0, len(r))
	for _, op := range r {
		out = append(out, op)
	}
	slices.SortFunc(out, func(a, b Op) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// rangeOf cuts [lo, hi] out of a sorted() snapshot.
func rangeOf(all []Op, lo, hi uint64) []Op {
	if lo > hi {
		return nil
	}
	byKey := func(op Op, k uint64) int { return cmp.Compare(op.Key, k) }
	a, _ := slices.BinarySearchFunc(all, lo, byKey)
	b, found := slices.BinarySearchFunc(all, hi, byKey)
	if found {
		b++
	}
	return all[a:b]
}

// checkShape verifies the overlay's structural invariants: a directory
// entry per chunk equal to its first key, chunks non-empty, within
// capacity, at least half full unless alone, and keys strictly ascending
// across the whole overlay.
func checkShape(t *testing.T, o *overlay, size int) {
	t.Helper()
	if len(o.first) != len(o.chunks) {
		t.Fatalf("directory has %d entries for %d chunks", len(o.first), len(o.chunks))
	}
	n := 0
	var prev uint64
	for c, ch := range o.chunks {
		if len(ch) == 0 || len(ch) > chunkOps {
			t.Fatalf("chunk %d holds %d ops", c, len(ch))
		}
		if len(o.chunks) > 1 && len(ch) < chunkOps/2 {
			t.Fatalf("chunk %d of %d holds %d ops, under half of %d", c, len(o.chunks), len(ch), chunkOps)
		}
		if o.first[c] != ch[0].Key {
			t.Fatalf("directory[%d] = %d, chunk starts at %d", c, o.first[c], ch[0].Key)
		}
		for i, op := range ch {
			if n > 0 && op.Key <= prev {
				t.Fatalf("chunk %d op %d: key %d after %d", c, i, op.Key, prev)
			}
			prev = op.Key
			n++
		}
	}
	if n != size {
		t.Fatalf("overlay holds %d ops, want %d", n, size)
	}
}

// checkAgainst compares get on present and absent keys and appendRange on
// a spread of ranges — empty, inverted, single-key, whole-domain, random,
// and ones that start and end exactly on chunk boundaries.
func checkAgainst(t *testing.T, o *overlay, ref refOverlay, rng *rand.Rand, probes int) {
	t.Helper()
	checkShape(t, o, len(ref))
	all := ref.sorted()
	keys := make([]uint64, len(all))
	for i, op := range all {
		keys[i] = op.Key
	}
	checkFilter(t, o, keys)
	pick := func() uint64 {
		if len(keys) == 0 || rng.Intn(3) == 0 {
			return rng.Uint64() // absent, almost surely
		}
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(4) {
		case 0:
			return k - 1 // wraps at 0: MaxUint64 is as good a probe as any
		case 1:
			return k + 1
		}
		return k
	}
	checkGet := func(k uint64) {
		got, ok := o.get(k)
		want, wok := ref[k]
		if ok != wok || got != want {
			t.Fatalf("get(%d) = (%+v, %v), want (%+v, %v)", k, got, ok, want, wok)
		}
	}
	checkRange := func(lo, hi uint64) {
		// A non-empty dst checks that appendRange appends.
		sentinel := Op{Key: 42, Val: 42, Seq: 42}
		got := o.appendRange([]Op{sentinel}, lo, hi)
		if got[0] != sentinel {
			t.Fatalf("appendRange(%d, %d) overwrote dst", lo, hi)
		}
		if want := rangeOf(all, lo, hi); !slices.Equal(got[1:], want) {
			t.Fatalf("appendRange(%d, %d): %d ops, want %d", lo, hi, len(got)-1, len(want))
		}
	}
	for _, k := range []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64} {
		checkGet(k)
	}
	for i := 0; i < probes; i++ {
		checkGet(pick())
	}
	checkRange(0, math.MaxUint64)
	checkRange(0, 0)
	checkRange(math.MaxUint64, math.MaxUint64)
	checkRange(1, 0)
	checkRange(math.MaxUint64, 0)
	for i := 0; i < probes; i++ {
		lo, hi := pick(), pick()
		checkRange(lo, hi) // inverted about half the time
		checkRange(min(lo, hi), max(lo, hi))
		checkRange(lo, lo)
		if len(keys) > 0 {
			// Narrow: a window of a few present keys.
			a := rng.Intn(len(keys))
			b := min(a+rng.Intn(3*chunkOps), len(keys)-1)
			checkRange(keys[a], keys[b])
		}
	}
	// Ranges cut exactly on chunk boundaries, one to three chunks wide.
	for i := 0; i < probes && len(o.chunks) > 0; i++ {
		a := rng.Intn(len(o.chunks))
		b := min(a+rng.Intn(3), len(o.chunks)-1)
		lo := o.chunks[a][0].Key
		last := o.chunks[b]
		hi := last[len(last)-1].Key
		checkRange(lo, hi)
		checkRange(lo+1, hi)
		checkRange(lo, hi-1)
		checkRange(hi, hi)
		if b+1 < len(o.chunks) {
			checkRange(lo, o.chunks[b+1][0].Key)
		}
	}
}

// checkFilter checks that the overlay's filter reports every key it holds.
func checkFilter(t *testing.T, o *overlay, keys []uint64) {
	t.Helper()
	for _, k := range keys {
		if !o.filter.mayHold(k) {
			t.Fatalf("the filter rules out held key %d (%d keys, %d words)", k, len(keys), len(o.filter))
		}
	}
}

// checkFinger compares a finger-driven batch with per-key get.
func checkFinger(t *testing.T, o *overlay, batch []uint64, what string) {
	t.Helper()
	f := finger{o: o}
	for i, k := range batch {
		got, ok := f.get(k)
		want, wok := o.get(k)
		if ok != wok || got != want {
			t.Fatalf("%s batch, key %d of %d (%d): finger (%+v, %v), get (%+v, %v)", what, i, len(batch), k, got, ok, want, wok)
		}
	}
}

// TestOverlayMatchesMap drives random puts — fresh keys, overwrites,
// tombstones — into the overlay and a hash map, in ascending, descending
// and random key order, and compares them after every few operations and
// at every size that straddles a chunk split. The overlay's filter has room
// for a third of its final size, so the later checks run it overfull. Each
// check includes the filter reporting every held key; so does the
// directory a drain builds from the overlay once it is sealed.
func TestOverlayMatchesMap(t *testing.T) {
	sizes := []int{chunkOps - 1, chunkOps, chunkOps + 1, 2*chunkOps + 1, 32768}
	for _, order := range []string{"ascending", "descending", "random"} {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("%s/%d", order, size), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(size)*31 + int64(len(order))))
				o := newOverlay(size / 3)
				ref := refOverlay{}
				// Edge keys go in on every order, early or late.
				fresh := make([]uint64, size)
				fresh[0], fresh[1] = 0, math.MaxUint64
				for i := 2; i < size; i++ {
					fresh[i] = rng.Uint64()>>1 | 1 // odd: k±1 probes are absent
				}
				switch order {
				case "ascending":
					slices.Sort(fresh)
				case "descending":
					slices.Sort(fresh)
					slices.Reverse(fresh)
				}
				every := max(size/24, 1)
				var seq uint64
				put := func(k uint64) {
					seq++
					op := Op{Key: k, Val: rng.Uint64(), Seq: seq << 1}
					if rng.Intn(4) == 0 {
						op.Val, op.Seq = 0, op.Seq|1
					}
					o.put(op)
					ref[k] = op
				}
				for i, k := range fresh {
					put(k)
					if rng.Intn(3) == 0 { // overwrite something already there
						put(fresh[rng.Intn(i+1)])
					}
					near := false
					for _, s := range sizes {
						near = near || (len(ref) >= s-1 && len(ref) <= s+1)
					}
					if near || i%every == 0 {
						checkAgainst(t, o, ref, rng, 8)
					}
				}
				checkAgainst(t, o, ref, rng, 64)
				// Sealed: a drain builds the young directory from it.
				d := (*keyDir)(nil).merge(o)
				for k := range ref {
					if !o.filter.mayHold(k) || !d.filter.mayHold(k) {
						t.Fatalf("after the seal a filter rules out held key %d: front %v, directory %v", k, o.filter.mayHold(k), d.filter.mayHold(k))
					}
				}

				// The finger: present keys, their absent neighbours and
				// random keys, as a sorted batch, the same with every key
				// repeated, and in draw order; then every key, ascending.
				var batch []uint64
				for i := 0; i < 200; i++ {
					k := fresh[rng.Intn(len(fresh))]
					batch = append(batch, k, k+1, rng.Uint64())
				}
				sorted := slices.Clone(batch)
				slices.Sort(sorted)
				checkFinger(t, o, slices.Compact(slices.Clone(sorted)), "sorted")
				dup := append(slices.Clone(sorted), sorted...)
				slices.Sort(dup)
				checkFinger(t, o, dup, "duplicate-carrying")
				checkFinger(t, o, batch, "unsorted")
				dense := slices.Clone(fresh)
				slices.Sort(dense)
				checkFinger(t, o, dense, "dense")
			})
		}
	}
}

// TestOverlayEmpty pins an empty overlay from newOverlay: nothing found,
// nothing in range.
func TestOverlayEmpty(t *testing.T) {
	o := newOverlay(0)
	if _, ok := o.get(7); ok {
		t.Fatal("get on an empty overlay found something")
	}
	if got := o.appendRange(nil, 0, math.MaxUint64); len(got) != 0 {
		t.Fatalf("appendRange on an empty overlay returned %d ops", len(got))
	}
	f := finger{o: o}
	if _, ok := f.get(7); ok {
		t.Fatal("finger on an empty overlay found something")
	}
}

// TestFingerBelowFirst probes keys under the overlay's smallest between
// keys inside it: a miss below the first chunk must leave the finger
// usable for whatever comes next, larger or smaller.
func TestFingerBelowFirst(t *testing.T) {
	o := newOverlay(0)
	for k := uint64(1000); k < 1000+3*chunkOps; k++ {
		o.put(Op{Key: k, Val: k, Seq: k << 1})
	}
	last := uint64(1000 + 3*chunkOps - 1)
	checkFinger(t, o, []uint64{5, 1000, 7, last, 999, 1000 + chunkOps, 8, 8, 1001, last + 1, 0}, "below-first")
	checkFinger(t, o, []uint64{0, 999, 1000, 1000, 1001 + chunkOps, last, last + 1}, "sorted from below")
}

// TestKeyDirMatchesMap merges random fronts into a young directory one
// after another and checks it against a reference map after each: every
// key any front touched is found, with the delete bit of its newest
// operation, in key order; find's position is the lower bound for absent
// keys too; the filter never rules out a held key and passes few absent
// ones.
func TestKeyDirMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ref := map[uint64]bool{} // key -> deleted
	var d *keyDir
	seq := uint64(0)
	for front := 0; front < 6; front++ {
		o := newOverlay(3000)
		for i := 0; i < 3000; i++ {
			k := uint64(rng.Intn(20000)) * 3
			seq++
			op := Op{Key: k, Val: seq, Seq: seq << 1}
			if rng.Intn(3) == 0 {
				op.Seq |= 1
			}
			o.put(op)
			ref[k] = op.Deleted()
		}
		d = d.merge(o)
		if len(d.keys) != len(ref) {
			t.Fatalf("front %d: directory holds %d keys, want %d", front, len(d.keys), len(ref))
		}
		for i, k := range d.keys {
			if i > 0 && d.keys[i-1] >= k {
				t.Fatalf("front %d: keys out of order at %d", front, i)
			}
			if dead, ok := ref[k]; !ok || dead != d.isDead(i) {
				t.Fatalf("front %d: key %d dead=%v, want present=%v dead=%v", front, k, d.isDead(i), ok, dead)
			}
			if !d.filter.mayHold(k) {
				t.Fatalf("front %d: the filter rules out held key %d", front, k)
			}
		}
		passed := 0
		for probe := uint64(0); probe < 60000; probe++ {
			i, ok := d.find(probe)
			_, want := ref[probe]
			if ok != want || i != sort.Search(len(d.keys), func(j int) bool { return d.keys[j] >= probe }) {
				t.Fatalf("front %d: find(%d) = (%d, %v)", front, probe, i, ok)
			}
			if !want && d.filter.mayHold(probe) {
				passed++
			}
		}
		if absent := 60000 - len(ref); passed > absent/50 {
			t.Errorf("front %d: the filter passed %d of %d absent keys", front, passed, absent)
		}
	}
}

// TestFilterFalsePositives fills store-file's front (a 32 768-op seal
// threshold) to the full room of its filter and the young directory a
// store-file shard holds before its compaction (three such fronts), and
// counts how many of 2^16 absent keys each filter passes: at most 2 %.
func TestFilterFalsePositives(t *testing.T) {
	const front, probes = 32768, 1 << 16
	rng := rand.New(rand.NewSource(49))
	o := newOverlay(frontRoom(front))
	held := map[uint64]bool{}
	for len(held) < frontRoom(front) {
		k := rng.Uint64()
		o.put(Op{Key: k, Seq: uint64(len(held)) << 1})
		held[k] = true
	}
	var d *keyDir
	for f := 0; f < 3; f++ {
		ops := newOverlay(front)
		for i := 0; i < front; i++ {
			k := rng.Uint64()
			ops.put(Op{Key: k, Seq: uint64(i) << 1})
			held[k] = true
		}
		d = d.merge(ops)
	}
	for _, c := range []struct {
		name string
		keys int
		f    filter
	}{{"front", frontRoom(front), o.filter}, {"young directory", len(d.keys), d.filter}} {
		passed, absent := 0, 0
		for absent < probes {
			k := rng.Uint64()
			if held[k] {
				continue
			}
			absent++
			if c.f.mayHold(k) {
				passed++
			}
		}
		rate := float64(passed) / probes
		t.Logf("%s: %d keys in %d words, %d of %d absent keys passed (%.2f %%)", c.name, c.keys, len(c.f), passed, probes, 100*rate)
		if rate > 0.02 {
			t.Errorf("%s: the filter passed %.2f %% of absent keys, want at most 2 %%", c.name, 100*rate)
		}
	}
}
