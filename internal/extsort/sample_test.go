package extsort

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// sliceSink collects what a sort emits without holding frames or writing
// blocks, so a sort into it is charged only its own transfers. Given a
// pool, it records how many frames were on loan when the first record
// arrived.
type sliceSink[T any] struct {
	vs   []T
	pool *pdm.Pool
	held int
}

func (s *sliceSink[T]) Append(v T) error {
	if len(s.vs) == 0 && s.pool != nil {
		s.held = s.pool.InUse()
	}
	s.vs = append(s.vs, v)
	return nil
}

func (s *sliceSink[T]) Close() error { return nil }

// sortShape is one memory configuration of the adversarial grid: a pool of
// mem frames on a D=width volume of 1 KiB blocks, sorting n records.
type sortShape struct {
	mem, width, n int
}

func (s sortShape) String() string {
	return fmt.Sprintf("mem%d/W%d", s.mem, s.width)
}

// sampleBlocks is the sample the top level of a sort of in blocks reads
// into a pool with mem frames free: four blocks per bucket, at most the
// frames the partition reader leaves, and at most the whole input. The
// sort charges every stream 2×width frames.
func (s sortShape) sampleBlocks(in int) int {
	sf := 2 * s.width
	return min(4*((s.mem-sf)/sf), s.mem-sf, in)
}

// sortCount distribution-sorts vs by key into a sliceSink on a fresh volume
// (in dir, or in memory when dir is empty) and returns the output, the
// input's blocks, the sort's counted transfers and the frames it had on
// loan when it emitted its first record. It fails the test unless the
// pool's free frames and the volume's live blocks come back exactly.
func sortCount(t *testing.T, s sortShape, dir string, vs []record.Record) ([]record.Record, int, pdm.Stats, int) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 1024, MemBlocks: s.mem, Disks: s.width, Dir: dir})
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	free, live := pool.Free(), vol.Allocated()-vol.FreeBlocks()
	vol.Stats().Reset()
	sink := sliceSink[record.Record]{pool: pool}
	if err := DistributionSortTo(f, pool, keyLess, &Options{Width: s.width}, &sink); err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	st := vol.Stats().Snapshot()
	if pool.Free() != free {
		t.Errorf("%v: %d frames free after the sort, %d before", s, pool.Free(), free)
	}
	if l := vol.Allocated() - vol.FreeBlocks(); l != live {
		t.Errorf("%v: %d live blocks after the sort, %d before", s, l, live)
	}
	return sink.vs, f.Blocks(), st, sink.held
}

// TestDistributionSortReadsInputSampleAndBuckets pins a one-level sort's
// reads: the partition pass reads the input once, the base cases read each
// bucket once, and the splitters cost their sampled blocks, not a
// second scan of the input. Into a sliceSink the only writes are the
// buckets', so reads = input + writes + sample, exactly, and the mem and
// file backends count the same transfers.
func TestDistributionSortReadsInputSampleAndBuckets(t *testing.T) {
	s := sortShape{mem: 128, width: 2, n: 512 * 64}
	vs := distinctRecords(s.n)
	_, in, mem, _ := sortCount(t, s, "", vs)
	_, _, file, _ := sortCount(t, s, t.TempDir(), vs)
	want := uint64(in) + mem.Writes + uint64(s.sampleBlocks(in))
	if mem.Reads != want {
		t.Errorf("read %d blocks, want %d input + %d bucket + %d sample = %d",
			mem.Reads, in, mem.Writes, s.sampleBlocks(in), want)
	}
	if mem.Reads != file.Reads || mem.Writes != file.Writes || mem.Steps != file.Steps {
		t.Errorf("mem %d reads, %d writes, %d steps; file %d, %d, %d",
			mem.Reads, mem.Writes, mem.Steps, file.Reads, file.Writes, file.Steps)
	}
}

func cmpKey(a, b record.Record) int { return cmp.Compare(a.Key, b.Key) }

func cmpRecord(a, b record.Record) int {
	if c := cmpKey(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.Val, b.Val)
}

// adversarialInput is one named key order of n records, perBlock to a
// block. Values are the input positions, so every record is distinct.
type adversarialInput struct {
	name string
	key  func(rng *rand.Rand, i int) uint64
}

// records materialises the input from its own seeded stream.
func (a adversarialInput) records(n int) []record.Record {
	rng := rand.New(rand.NewSource(7))
	vs := make([]record.Record, n)
	for i := range vs {
		vs[i] = record.Record{Key: a.key(rng, i), Val: uint64(i)}
	}
	return vs
}

// adversarialInputs are the key orders a block sample is weakest on —
// sorted and reverse runs and block-clustered keys (a random key range per
// block, random keys inside it) put one narrow key range in each block —
// plus duplicates, which defeat splitters altogether, and random keys.
func adversarialInputs(n, perBlock int) []adversarialInput {
	blockKey := rand.New(rand.NewSource(8)).Perm(n/perBlock + 1)
	return []adversarialInput{
		{"random", func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() }},
		{"sorted", func(_ *rand.Rand, i int) uint64 { return uint64(i) }},
		{"reverse", func(_ *rand.Rand, i int) uint64 { return uint64(n - i) }},
		{"all-equal", func(*rand.Rand, int) uint64 { return 7 }},
		{"few", func(rng *rand.Rand, _ int) uint64 { return uint64(rng.Intn(4)) }},
		{"clustered", func(rng *rand.Rand, i int) uint64 {
			return uint64(blockKey[i/perBlock])<<32 | uint64(rng.Uint32())
		}},
	}
}

// TestDistributionSortAdversarialInputs sorts every adversarial input at
// three memory shapes. Each must come out sorted, with the pool and the
// volume restored, and partition no deeper and read no more than the
// full-scan reservoir sampler the block sample replaced; scan holds that
// sampler's counts on the same inputs. Where it partitioned once — its
// reads were two input scans plus its bucket writes — the block sample
// must too, which the one-level read identity shows; where it recursed
// (few distinct keys at the larger shapes), the block sample must write no
// more than it did.
func TestDistributionSortAdversarialInputs(t *testing.T) {
	type counts struct{ reads, writes uint64 }
	for _, tc := range []struct {
		shape sortShape
		scan  map[string]counts
	}{
		{sortShape{mem: 512, width: 4, n: 1 << 18}, map[string]counts{
			"random": {12320, 4128}, "sorted": {12320, 4128}, "reverse": {12316, 4124},
			"all-equal": {20480, 12288}, "few": {28682, 16392}, "clustered": {12321, 4129},
		}},
		{sortShape{mem: 64, width: 1, n: 1 << 15}, map[string]counts{
			"random": {1566, 542}, "sorted": {1568, 544}, "reverse": {1564, 540},
			"all-equal": {2560, 1536}, "few": {3599, 2060}, "clustered": {1566, 542},
		}},
		{sortShape{mem: 40, width: 2, n: 1 << 13}, map[string]counts{
			"random": {387, 131}, "sorted": {388, 132}, "reverse": {389, 133},
			"all-equal": {640, 384}, "few": {386, 130}, "clustered": {389, 133},
		}},
	} {
		s := tc.shape
		for _, input := range adversarialInputs(s.n, 64) {
			name, vs := input.name, input.records(s.n)
			got, in, st, _ := sortCount(t, s, "", vs)
			if !slices.IsSortedFunc(got, cmpKey) {
				t.Errorf("%v %s: output keys out of order", s, name)
			}
			want := slices.Clone(vs)
			slices.SortFunc(want, cmpRecord)
			slices.SortFunc(got, cmpRecord)
			if !slices.Equal(got, want) {
				t.Errorf("%v %s: output is not a permutation of the input", s, name)
			}
			scan := tc.scan[name]
			if st.Reads > scan.reads {
				t.Errorf("%v %s: %d reads, the scan sampler's %d", s, name, st.Reads, scan.reads)
			}
			blocks, sample := uint64(in), uint64(s.sampleBlocks(in))
			if scan.reads == 2*blocks+scan.writes {
				if st.Reads != blocks+st.Writes+sample {
					t.Errorf("%v %s: %d reads, %d writes: partitioned more than once (one level reads %d + writes + %d)",
						s, name, st.Reads, st.Writes, blocks, sample)
				}
			} else if st.Writes > scan.writes {
				t.Errorf("%v %s: %d writes, the scan sampler's %d", s, name, st.Writes, scan.writes)
			}
		}
	}
}

// TestDistributionSortSampleReadFailureRestores crashes the volume at every
// transfer of the sample read and the first partition batches: each sort
// must fail with the pool's frames and the volume's blocks restored.
func TestDistributionSortSampleReadFailureRestores(t *testing.T) {
	s := sortShape{mem: 40, width: 2, n: 1 << 13}
	vs := distinctRecords(s.n)
	in := s.n / 64
	for after := 0; after <= s.sampleBlocks(in)+2*s.width; after++ {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 1024, MemBlocks: s.mem, Disks: s.width,
			Fault: &pdm.FaultPlan{FailAfter: int64(in + after)}})
		pool := pdm.PoolFor(vol)
		f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		free, live := pool.Free(), vol.Allocated()-vol.FreeBlocks()
		err = DistributionSortTo(f, pool, keyLess, &Options{Width: s.width}, &sliceSink[record.Record]{})
		if !errors.Is(err, pdm.ErrFaulted) {
			t.Errorf("crash after %d: error %v, want ErrFaulted", after, err)
		}
		if pool.Free() != free {
			t.Errorf("crash after %d: %d frames free, %d before", after, pool.Free(), free)
		}
		if l := vol.Allocated() - vol.FreeBlocks(); l != live {
			t.Errorf("crash after %d: %d live blocks, %d before", after, l, live)
		}
		vol.Close()
	}
}

// TestDistributionSortResidentBucketNeverWritten pins the hybrid level: the
// lowest bucket stays in memory for the partition pass and is emitted
// straight into the sink, so a one-level sort writes fewer blocks than its
// input (a sort that writes every bucket writes at least the input), and
// the read identity still holds — the resident bucket is neither written
// nor read back — on both backends alike. Its records are charged to the
// pool until they are emitted.
func TestDistributionSortResidentBucketNeverWritten(t *testing.T) {
	s := sortShape{mem: 512, width: 4, n: 1 << 18}
	vs := adversarialInputs(s.n, 64)[0].records(s.n)
	got, in, mem, held := sortCount(t, s, "", vs)
	_, _, file, _ := sortCount(t, s, t.TempDir(), vs)
	if !slices.IsSortedFunc(got, cmpKey) || len(got) != s.n {
		t.Fatalf("emitted %d records, want %d in key order", len(got), s.n)
	}
	if mem.Writes >= uint64(in) {
		t.Errorf("wrote %d blocks for %d input blocks: the lowest bucket reached the volume", mem.Writes, in)
	}
	// The blocks never written were held in memory, and charged for until
	// they were emitted.
	if unwritten := in - int(mem.Writes); held < unwritten {
		t.Errorf("%d frames on loan at the first emit, but %d blocks of records were kept in memory", held, unwritten)
	}
	if want := uint64(in) + mem.Writes + uint64(s.sampleBlocks(in)); mem.Reads != want {
		t.Errorf("read %d blocks, want %d input + %d bucket + %d sample = %d",
			mem.Reads, in, mem.Writes, s.sampleBlocks(in), want)
	}
	if mem.Reads != file.Reads || mem.Writes != file.Writes || mem.Steps != file.Steps {
		t.Errorf("mem %d reads, %d writes, %d steps; file %d, %d, %d",
			mem.Reads, mem.Writes, mem.Steps, file.Reads, file.Writes, file.Steps)
	}
}

// TestPartitionSpillsResidentBucket gives partition a resident share that
// bucket 0 overflows fourfold: the bucket must spill into its file and the
// slice come back nil, and sorting the buckets must emit the whole input in
// order, reading each bucket once (input + bucket writes, no more), with
// the pool's frames and the volume's live blocks restored.
func TestPartitionSpillsResidentBucket(t *testing.T) {
	const n, per = 1 << 13, 64
	vs := adversarialInputs(n, per)[0].records(n)
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 1024, MemBlocks: 40, Disks: 2})
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	free, live := pool.Free(), vol.Allocated()-vol.FreeBlocks()
	// Four equal buckets of 32 blocks each; 36 frames hold a base case.
	sorted := slices.Clone(vs)
	slices.SortFunc(sorted, cmpKey)
	cuts := []record.Record{sorted[n/4], sorted[n/2], sorted[3*n/4]}
	d := &distSorter[record.Record]{pool: pool, less: keyLess, kern: stableKernel(keyLess), opts: &Options{Width: 2}, depth: 2}
	vol.Stats().Reset()
	res, buckets, err := d.partition(f, cuts, 8*per, d.depth)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil || buckets[0].Len() != n/4 {
		t.Fatalf("resident bucket kept %d records in memory and %d in its file, want 0 and %d",
			len(res), buckets[0].Len(), n/4)
	}
	var sink sliceSink[record.Record]
	for i, b := range buckets {
		if err := d.sortInto(b, &sink, true); err != nil {
			releaseFiles(buckets[i+1:])
			t.Fatal(err)
		}
	}
	st := vol.Stats().Snapshot()
	if !slices.Equal(sink.vs, sorted) {
		t.Error("the buckets did not emit the input in key order")
	}
	if st.Reads != uint64(f.Blocks())+st.Writes {
		t.Errorf("read %d blocks, want %d input + %d bucket", st.Reads, f.Blocks(), st.Writes)
	}
	if pool.Free() != free {
		t.Errorf("%d frames free, %d before", pool.Free(), free)
	}
	if l := vol.Allocated() - vol.FreeBlocks(); l != live {
		t.Errorf("%d live blocks, %d before", l, live)
	}
}

// TestSortIndexHybridCrashSweep crashes the volume at every transfer of a
// fused build from its first partition batch to its end, at a shape whose
// top level keeps a bucket resident and whose block-clustered input makes
// that bucket spill: the sweep passes through the partition pass, the
// resident bucket's spill, the base cases of every spilled bucket and the
// loader's flushes. Each crash must surface ErrFaulted with the pool's
// frames and the volume's live blocks restored.
func TestSortIndexHybridCrashSweep(t *testing.T) {
	const mem, cacheFrames = 68, 8
	s := sortShape{mem: mem - cacheFrames - 2*2, width: 2, n: 1 << 13}
	opts := &Options{Width: s.width}
	vs := adversarialInputs(s.n, 64)[5].records(s.n) // clustered
	in := s.n / 64
	// The sort sees s.mem frames once the loader's budget is held back; at
	// that budget the top level must be hybrid, so the spill below is the
	// resident bucket's.
	d := newDistSorter(pdm.NewPool(1024, s.mem), keyLess, stableKernel(keyLess), opts)
	fo := fanOut(d.pool.Free(), d.sf(), opts)
	if k, resident, _ := d.plan(int64(s.n), (s.mem-2*s.width)*64, 64, s.sampleBlocks(in), fo); k == 0 || resident == 0 {
		t.Fatalf("%v: plan of %d spilled buckets, %d resident frames: not a hybrid level", s, k, resident)
	}
	run := func(failAfter int64) (pdm.Stats, int64, error) {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 1024, MemBlocks: mem, Disks: s.width,
			Fault: &pdm.FaultPlan{FailAfter: failAfter}})
		defer vol.Close()
		pool := pdm.PoolFor(vol)
		f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		free, live := pool.Free(), vol.Allocated()-vol.FreeBlocks()
		vol.Stats().Reset()
		tr, err := SortIndex(f, pool, cacheFrames, opts)
		st, nodes := vol.Stats().Snapshot(), vol.Allocated()-vol.FreeBlocks()-live
		if tr != nil {
			tr.Close()
			return st, nodes, err
		}
		if pool.Free() != free {
			t.Errorf("crash after %d: %d frames free, %d before", failAfter, pool.Free(), free)
		}
		if nodes != 0 {
			t.Errorf("crash after %d: %d live blocks stranded", failAfter, nodes)
		}
		return st, 0, err
	}
	clean, nodes, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	// A resident bucket that stayed in memory leaves the buckets fewer
	// blocks than the input; a spilled one is written in full.
	if clean.Writes-uint64(nodes) < uint64(in) {
		t.Fatalf("%d bucket writes for %d input blocks: the resident bucket did not spill", clean.Writes-uint64(nodes), in)
	}
	first := int64(in + s.sampleBlocks(in))
	for after := first; after < int64(in)+int64(clean.Total()); after++ {
		if _, _, err := run(after); !errors.Is(err, pdm.ErrFaulted) {
			t.Fatalf("crash after %d: error %v, want ErrFaulted", after, err)
		}
	}
}
