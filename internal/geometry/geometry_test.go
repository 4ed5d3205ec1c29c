package geometry

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

func testVolume(t testing.TB, memBlocks int) (*pdm.Volume, *pdm.Pool) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 512, MemBlocks: memBlocks, Disks: 1})
	return vol, pdm.PoolFor(vol)
}

// randomSegments generates nh horizontal and nv vertical segments with
// coordinates drawn from a small integer grid so intersections are common.
func randomSegments(rng *rand.Rand, nh, nv int, span float64) []Segment {
	segs := make([]Segment, 0, nh+nv)
	id := int64(0)
	for i := 0; i < nh; i++ {
		x1 := rng.Float64() * span
		x2 := x1 + rng.Float64()*span/4
		y := rng.Float64() * span
		segs = append(segs, Horizontal(id, x1, x2, y))
		id++
	}
	for i := 0; i < nv; i++ {
		x := rng.Float64() * span
		y1 := rng.Float64() * span
		y2 := y1 + rng.Float64()*span/4
		segs = append(segs, Vertical(id, x, y1, y2))
		id++
	}
	return segs
}

// referenceIntersections computes crossings by brute force in memory.
func referenceIntersections(segs []Segment) []record.Pair {
	var out []record.Pair
	for _, h := range segs {
		if h.Vertical {
			continue
		}
		for _, v := range segs {
			if !v.Vertical {
				continue
			}
			if crosses(h, v) {
				out = append(out, record.Pair{A: h.ID, B: v.ID})
			}
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps []record.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
}

func runSweep(t *testing.T, segs []Segment, memBlocks int) []record.Pair {
	t.Helper()
	vol, pool := testVolume(t, memBlocks)
	f, err := stream.FromSlice(vol, pool, SegmentCodec{}, segs)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	out, err := Intersections(f, pool)
	if err != nil {
		t.Fatalf("Intersections: %v", err)
	}
	got, err := stream.ToSlice(out, pool)
	if err != nil {
		t.Fatalf("ToSlice: %v", err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d frames still in use", pool.InUse())
	}
	sortPairs(got)
	return got
}

func pairsEqual(a, b []record.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	c := SegmentCodec{}
	f := func(id int64, vert bool, x1, x2, y, y2 float64) bool {
		s := Segment{ID: id, Vertical: vert, X1: x1, X2: x2, Y: y, Y2: y2}
		b := make([]byte, c.Size())
		c.Encode(b, s)
		return c.Decode(b) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorsNormalise(t *testing.T) {
	h := Horizontal(1, 5, 2, 3)
	if h.X1 != 2 || h.X2 != 5 {
		t.Fatalf("Horizontal did not swap endpoints: %+v", h)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	v := Vertical(2, 1, 9, 4)
	if v.Y != 4 || v.Y2 != 9 {
		t.Fatalf("Vertical did not swap endpoints: %+v", v)
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := Segment{ID: 1, Vertical: true, Y: 5, Y2: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for inverted vertical")
	}
	bad = Segment{ID: 2, X1: 9, X2: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for inverted horizontal")
	}
}

func TestCrosses(t *testing.T) {
	h := Horizontal(0, 0, 10, 5)
	cases := []struct {
		v    Segment
		want bool
	}{
		{Vertical(1, 5, 0, 10), true},   // clean crossing
		{Vertical(2, 0, 0, 10), true},   // touches left endpoint
		{Vertical(3, 10, 0, 10), true},  // touches right endpoint
		{Vertical(4, 5, 5, 10), true},   // vertical starts exactly on h
		{Vertical(5, 5, 0, 5), true},    // vertical ends exactly on h
		{Vertical(6, 11, 0, 10), false}, // right of h
		{Vertical(7, 5, 6, 10), false},  // above h
		{Vertical(8, 5, 0, 4), false},   // below h
	}
	for _, c := range cases {
		if got := crosses(h, c.v); got != c.want {
			t.Errorf("crosses(h, %+v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestIntersectionsTiny(t *testing.T) {
	segs := []Segment{
		Horizontal(0, 0, 10, 5),
		Vertical(1, 5, 0, 10),
		Vertical(2, 20, 0, 10),
	}
	got := runSweep(t, segs, 16)
	want := []record.Pair{{A: 0, B: 1}}
	if !pairsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestIntersectionsEmptyAndSingle(t *testing.T) {
	if got := runSweep(t, nil, 8); len(got) != 0 {
		t.Fatalf("empty input produced %v", got)
	}
	if got := runSweep(t, []Segment{Horizontal(0, 0, 1, 0)}, 8); len(got) != 0 {
		t.Fatalf("single horizontal produced %v", got)
	}
	if got := runSweep(t, []Segment{Vertical(0, 0, 0, 1)}, 8); len(got) != 0 {
		t.Fatalf("single vertical produced %v", got)
	}
}

func TestIntersectionsMatchesReferenceInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segs := randomSegments(rng, 40, 40, 50)
	got := runSweep(t, segs, 64) // large memory: base case path
	want := referenceIntersections(segs)
	if !pairsEqual(got, want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
}

func TestIntersectionsMatchesReferenceExternal(t *testing.T) {
	// Small memory forces recursion through the distribution sweep.
	rng := rand.New(rand.NewSource(11))
	segs := randomSegments(rng, 300, 300, 100)
	got := runSweep(t, segs, 12)
	want := referenceIntersections(segs)
	if !pairsEqual(got, want) {
		t.Fatalf("sweep disagrees with reference: got %d pairs, want %d", len(got), len(want))
	}
}

func TestIntersectionsDegenerateSharedX(t *testing.T) {
	// Every vertical at the same x: splitter selection degenerates, the
	// sweeper must fall back without looping forever.
	var segs []Segment
	for i := 0; i < 200; i++ {
		segs = append(segs, Vertical(int64(i), 5, float64(i), float64(i+3)))
	}
	for i := 0; i < 200; i++ {
		segs = append(segs, Horizontal(int64(1000+i), 0, 10, float64(i)+0.5))
	}
	got := runSweep(t, segs, 10)
	want := referenceIntersections(segs)
	if !pairsEqual(got, want) {
		t.Fatalf("degenerate input: got %d pairs, want %d", len(got), len(want))
	}
}

func TestIntersectionsCollinearTouching(t *testing.T) {
	// Horizontal collinear with vertical endpoints (closed-segment semantics:
	// touching counts).
	segs := []Segment{
		Horizontal(0, 0, 10, 5),
		Vertical(1, 3, 5, 9),  // bottom endpoint on h
		Vertical(2, 7, 1, 5),  // top endpoint on h
		Vertical(3, 10, 5, 6), // corner touch at (10,5)
	}
	got := runSweep(t, segs, 16)
	want := referenceIntersections(segs)
	if !pairsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestNaiveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	segs := randomSegments(rng, 30, 30, 40)
	vol, pool := testVolume(t, 16)
	f, err := stream.FromSlice(vol, pool, SegmentCodec{}, segs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NaiveIntersections(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ToSlice(out, pool)
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(got)
	want := referenceIntersections(segs)
	if !pairsEqual(got, want) {
		t.Fatalf("naive: got %d pairs, want %d", len(got), len(want))
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d in use", pool.InUse())
	}
}

func TestSweepRandomisedAgainstNaiveProperty(t *testing.T) {
	// Property: for arbitrary random instances and several memory budgets,
	// sweep output == naive output as a multiset.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		nh := 20 + rng.Intn(150)
		nv := 20 + rng.Intn(150)
		segs := randomSegments(rng, nh, nv, 60)
		mem := []int{10, 16, 48}[trial%3]
		got := runSweep(t, segs, mem)
		want := referenceIntersections(segs)
		if !pairsEqual(got, want) {
			t.Fatalf("trial %d (nh=%d nv=%d mem=%d): got %d pairs, want %d",
				trial, nh, nv, mem, len(got), len(want))
		}
	}
}

func TestSweepBeatsNaiveOnIOs(t *testing.T) {
	// Experiment T8's shape: for a dense instance the distribution sweep must
	// use far fewer I/Os than the quadratic baseline.
	rng := rand.New(rand.NewSource(21))
	segs := randomSegments(rng, 600, 600, 200)

	vol, pool := testVolume(t, 12)
	f, err := stream.FromSlice(vol, pool, SegmentCodec{}, segs)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	out, err := Intersections(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	sweepIOs := vol.Stats().Total()
	out.Release()

	vol2, pool2 := testVolume(t, 12)
	f2, err := stream.FromSlice(vol2, pool2, SegmentCodec{}, segs)
	if err != nil {
		t.Fatal(err)
	}
	vol2.Stats().Reset()
	out2, err := NaiveIntersections(f2, pool2)
	if err != nil {
		t.Fatal(err)
	}
	naiveIOs := vol2.Stats().Total()
	out2.Release()

	if sweepIOs*4 > naiveIOs {
		t.Fatalf("sweep %d I/Os vs naive %d: expected at least 4x advantage", sweepIOs, naiveIOs)
	}
	t.Logf("sweep=%d naive=%d (%.1fx)", sweepIOs, naiveIOs, float64(naiveIOs)/float64(sweepIOs))
}

// TestSweepDiagonalStaysNearSort: on a diagonal — vertical i at x=i
// spanning y∈[i, i+3], horizontal i at y=i+1 spanning x∈[i-1, i+1] — x
// rises with the sweep's y order, so a slab sample drawn from one end of
// the event file puts every boundary among the first or last few x values
// and each level peels off a sliver. A sample of random blocks keeps the
// sweep near Sort(N) + Z/B: ≈ 21 I/Os per input block here, where the
// tail sample it replaced took ≈ 760.
func TestSweepDiagonalStaysNearSort(t *testing.T) {
	const n = 3000
	segs := make([]Segment, 0, 2*n)
	for i := 0; i < n; i++ {
		x := float64(i)
		segs = append(segs, Vertical(int64(2*i), x, x, x+3), Horizontal(int64(2*i+1), x-1, x+1, x+1))
	}
	vol, pool := testVolume(t, 12)
	f, err := stream.FromSlice(vol, pool, SegmentCodec{}, segs)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	out, err := Intersections(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	st := vol.Stats().Snapshot()
	got, err := stream.ToSlice(out, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*n-2 {
		t.Fatalf("%d pairs, want %d", len(got), 3*n-2)
	}
	blocks := uint64(f.Blocks())
	t.Logf("%d input blocks: %d reads + %d writes", blocks, st.Reads, st.Writes)
	if total := st.Reads + st.Writes; total > 40*blocks {
		t.Errorf("diagonal sweep took %d reads + %d writes = %d I/Os, want <= 40 × %d input blocks",
			st.Reads, st.Writes, total, blocks)
	}
}
