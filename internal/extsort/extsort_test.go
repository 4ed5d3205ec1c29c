package extsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

func newEnv(t testing.TB, memBlocks, disks int) (*pdm.Volume, *pdm.Pool) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: memBlocks, Disks: disks})
	return vol, pdm.PoolFor(vol)
}

func randRecs(n int, seed int64) []record.Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{Key: rng.Uint64() % 1000, Val: uint64(i)}
	}
	return out
}

func recLess(a, b record.Record) bool { return a.Less(b) }

func sortedCopy(in []record.Record) []record.Record {
	cp := append([]record.Record(nil), in...)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	return cp
}

func checkSorted(t *testing.T, name string, got, in []record.Record) {
	t.Helper()
	want := sortedCopy(in)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func runSort(t *testing.T, sortFn func(*stream.File[record.Record], *pdm.Pool, func(a, b record.Record) bool, *Options) (*stream.File[record.Record], error), opts *Options, n int) {
	t.Helper()
	vol, pool := newEnv(t, 8, 1)
	in := randRecs(n, int64(n))
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sortFn(f, pool, recLess, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ToSlice(out, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, "sort", got, in)
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
}

func TestMergeSortSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4, 5, 16, 100, 1000, 4096} {
		runSort(t, MergeSort, nil, n)
	}
}

func TestMergeSortReplacementSelection(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		runSort(t, MergeSort, &Options{RunMode: ReplacementSelection}, n)
	}
}

func TestDistributionSortSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 16, 100, 1000, 4096} {
		runSort(t, DistributionSort, nil, n)
	}
}

func TestSortAllEqualKeys(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	in := make([]record.Record, 500)
	for i := range in {
		in[i] = record.Record{Key: 7, Val: uint64(i)}
	}
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(*stream.File[record.Record], *pdm.Pool, func(a, b record.Record) bool, *Options) (*stream.File[record.Record], error){
		"merge": MergeSort[record.Record], "distribution": DistributionSort[record.Record],
	} {
		out, err := fn(f, pool, recLess, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := stream.ToSlice(out, pool)
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, name, got, in)
		out.Release()
	}
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	n := 600
	asc := make([]record.Record, n)
	desc := make([]record.Record, n)
	for i := 0; i < n; i++ {
		asc[i] = record.Record{Key: uint64(i), Val: uint64(i)}
		desc[i] = record.Record{Key: uint64(n - i), Val: uint64(i)}
	}
	for _, in := range [][]record.Record{asc, desc} {
		f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := MergeSort(f, pool, recLess, &Options{RunMode: ReplacementSelection})
		if err != nil {
			t.Fatal(err)
		}
		got, err := stream.ToSlice(out, pool)
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, "rs", got, in)
		out.Release()
		f.Release()
	}
}

func TestReplacementSelectionRunLengths(t *testing.T) {
	// With M records of memory, load-sort runs are exactly M long while
	// replacement selection averages ~2M on random input and produces a
	// single run on sorted input.
	vol, pool := newEnv(t, 8, 1)
	n := 2000
	in := randRecs(n, 99)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	loadRuns, err := FormRuns(f, pool, recLess, &Options{RunMode: LoadSort})
	if err != nil {
		t.Fatal(err)
	}
	rsRuns, err := FormRuns(f, pool, recLess, &Options{RunMode: ReplacementSelection})
	if err != nil {
		t.Fatal(err)
	}
	if len(rsRuns) >= len(loadRuns) {
		t.Fatalf("replacement selection should form fewer runs: %d vs %d", len(rsRuns), len(loadRuns))
	}
	// Each run must itself be sorted, and the totals must match.
	var total int64
	for _, r := range append(loadRuns, rsRuns...) {
		ok, err := IsSorted(r, pool, recLess)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("run not sorted")
		}
	}
	for _, r := range rsRuns {
		total += r.Len()
	}
	if total != int64(n) {
		t.Fatalf("rs runs hold %d records, want %d", total, n)
	}
	// Sorted input: single run.
	sortedIn := sortedCopy(in)
	sf, err := stream.FromSlice(vol, pool, record.RecordCodec{}, sortedIn)
	if err != nil {
		t.Fatal(err)
	}
	oneRun, err := FormRuns(sf, pool, recLess, &Options{RunMode: ReplacementSelection})
	if err != nil {
		t.Fatal(err)
	}
	if len(oneRun) != 1 {
		t.Fatalf("sorted input should form 1 run, got %d", len(oneRun))
	}
}

func TestMergePassCount(t *testing.T) {
	cases := []struct{ runs, fanin, want int }{
		{1, 4, 0},
		{0, 4, 0},
		{2, 4, 1},
		{4, 4, 1},
		{5, 4, 2},
		{16, 4, 2},
		{17, 4, 3},
		{100, 10, 2},
		{5, 1, -1},
	}
	for _, c := range cases {
		if got := MergePassCount(c.runs, c.fanin); got != c.want {
			t.Fatalf("MergePassCount(%d,%d) = %d, want %d", c.runs, c.fanin, got, c.want)
		}
	}
}

// TestMergeRunsCarriesLoneTail merges five 10-block runs at fan-in 2: the
// levels are {2,2,1}, {2,1} and {2}, and each lone tail run goes up a level
// without being copied, so the merge reads and writes 40 + 40 + 50 blocks,
// on both backends alike. A copied tail costs 10 more each way per level.
func TestMergeRunsCarriesLoneTail(t *testing.T) {
	const runs, blocks, per = 5, 10, 4 // 64-byte blocks hold 4 records
	var want []record.Record
	var stats []pdm.Stats
	for _, dir := range []string{"", t.TempDir()} {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 8, Disks: 1, Dir: dir})
		pool := pdm.PoolFor(vol)
		var files []*stream.File[record.Record]
		want = want[:0]
		for r := 0; r < runs; r++ {
			run := make([]record.Record, blocks*per)
			for i := range run {
				run[i] = record.Record{Key: uint64(i*runs + r), Val: uint64(r)}
			}
			want = append(want, run...)
			f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, run)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		vol.Stats().Reset()
		out, err := MergeRuns(files, pool, recLess, &Options{ForceFanIn: 2})
		if err != nil {
			t.Fatal(err)
		}
		st := vol.Stats().Snapshot()
		got, err := stream.ToSlice(out, pool)
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, "merged", got, want)
		out.Release()
		if live := vol.Allocated() - vol.FreeBlocks(); live != 0 {
			t.Errorf("dir=%q: %d live blocks after releasing the output", dir, live)
		}
		if st.Reads != 130 || st.Writes != 130 {
			t.Errorf("dir=%q: merge cost %d reads, %d writes; want 130, 130", dir, st.Reads, st.Writes)
		}
		stats = append(stats, st)
		vol.Close()
	}
	if m, f := stats[0], stats[1]; m.Reads != f.Reads || m.Writes != f.Writes || m.Steps != f.Steps {
		t.Errorf("backends diverge: mem %d/%d/%d, file %d/%d/%d reads/writes/steps",
			m.Reads, m.Writes, m.Steps, f.Reads, f.Writes, f.Steps)
	}
}

func TestForceFanInIncreasesPasses(t *testing.T) {
	// Constraining fan-in must increase I/O (more merge passes) but keep the
	// output correct — this is the mechanism behind experiment F1.
	vol, pool := newEnv(t, 8, 1)
	in := randRecs(3000, 5)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	wide, err := MergeSort(f, pool, recLess, nil)
	if err != nil {
		t.Fatal(err)
	}
	wideIO := vol.Stats().Total()
	vol.Stats().Reset()
	narrow, err := MergeSort(f, pool, recLess, &Options{ForceFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	narrowIO := vol.Stats().Total()
	if narrowIO <= wideIO {
		t.Fatalf("fan-in 2 should cost more I/O: %d vs %d", narrowIO, wideIO)
	}
	g1, _ := stream.ToSlice(wide, pool)
	g2, _ := stream.ToSlice(narrow, pool)
	checkSorted(t, "wide", g1, in)
	checkSorted(t, "narrow", g2, in)
}

func TestSortIOWithinConstantOfScan(t *testing.T) {
	// With M/B = 8 frames and N/B = 250 blocks, the sort needs
	// ceil(log_m(n)) ≈ 3 levels; total I/O must stay within a small
	// constant of 2·passes·scan.
	vol, pool := newEnv(t, 8, 1)
	n := 1000 // 250 blocks of 4 records
	in := randRecs(n, 3)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	out, err := MergeSort(f, pool, recLess, nil)
	if err != nil {
		t.Fatal(err)
	}
	io := vol.Stats().Total()
	scan := uint64(f.Blocks())
	if io > 20*scan {
		t.Fatalf("sort cost %d I/Os on a %d-block file — not O(scan·log)", io, scan)
	}
	if io < 2*scan {
		t.Fatalf("sort cost %d I/Os — impossibly low, accounting broken", io)
	}
	_ = out
}

func TestIsSorted(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, []record.Record{
		{Key: 1}, {Key: 2}, {Key: 2}, {Key: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsSorted(f, pool, recLess)
	if err != nil || !ok {
		t.Fatalf("sorted file reported unsorted (%v)", err)
	}
	g, err := stream.FromSlice(vol, pool, record.RecordCodec{}, []record.Record{
		{Key: 2}, {Key: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err = IsSorted(g, pool, recLess)
	if err != nil || ok {
		t.Fatalf("unsorted file reported sorted (%v)", err)
	}
}

func TestTinyPoolFails(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 2, Disks: 1})
	pool := pdm.PoolFor(vol)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, randRecs(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSort(f, pool, recLess, nil); err == nil {
		t.Fatal("2-frame pool should be rejected")
	}
}

func TestStripedSort(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 16, Disks: 4})
	pool := pdm.PoolFor(vol)
	in := randRecs(2000, 11)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	out, err := MergeSort(f, pool, recLess, &Options{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ToSlice(out, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, "striped", got, in)
	s := vol.Stats()
	// Striping must reduce parallel steps well below total block I/Os.
	if s.Steps*2 >= s.Total() {
		t.Fatalf("striping ineffective: steps=%d total=%d", s.Steps, s.Total())
	}
}

// Property: MergeSort output is the sorted permutation of arbitrary input,
// under both run-formation modes.
func TestQuickMergeSort(t *testing.T) {
	f := func(keys []uint16, rs bool) bool {
		if len(keys) > 800 {
			keys = keys[:800]
		}
		in := make([]record.Record, len(keys))
		for i, k := range keys {
			in[i] = record.Record{Key: uint64(k), Val: uint64(i)}
		}
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 6, Disks: 1})
		pool := pdm.PoolFor(vol)
		file, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
		if err != nil {
			return false
		}
		opts := &Options{}
		if rs {
			opts.RunMode = ReplacementSelection
		}
		out, err := MergeSort(file, pool, recLess, opts)
		if err != nil {
			return false
		}
		got, err := stream.ToSlice(out, pool)
		if err != nil {
			return false
		}
		want := sortedCopy(in)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return pool.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: DistributionSort agrees with MergeSort on arbitrary input.
func TestQuickDistributionMatchesMerge(t *testing.T) {
	f := func(keys []uint16) bool {
		if len(keys) > 600 {
			keys = keys[:600]
		}
		in := make([]record.Record, len(keys))
		for i, k := range keys {
			in[i] = record.Record{Key: uint64(k % 50), Val: uint64(i)} // heavy duplicates
		}
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 6, Disks: 1})
		pool := pdm.PoolFor(vol)
		file, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
		if err != nil {
			return false
		}
		a, err := MergeSort(file, pool, recLess, nil)
		if err != nil {
			return false
		}
		b, err := DistributionSort(file, pool, recLess, nil)
		if err != nil {
			return false
		}
		ga, _ := stream.ToSlice(a, pool)
		gb, _ := stream.ToSlice(b, pool)
		if len(ga) != len(gb) {
			return false
		}
		for i := range ga {
			if ga[i] != gb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
