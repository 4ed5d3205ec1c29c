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
// blocks, so a sort into it is charged only its own transfers.
type sliceSink[T any] struct{ vs []T }

func (s *sliceSink[T]) Append(v T) error { s.vs = append(s.vs, v); return nil }
func (s *sliceSink[T]) Close() error     { return nil }

// sortShape is one memory configuration of the adversarial grid: a pool of
// mem frames on a D=width volume of 1 KiB blocks, sorting n records.
type sortShape struct {
	mem, width int
	async      bool
	n          int
}

func (s sortShape) String() string {
	mode := "sync"
	if s.async {
		mode = "async"
	}
	return fmt.Sprintf("mem%d/W%d/%s", s.mem, s.width, mode)
}

// sampleBlocks is the sample the top level of a sort of in blocks reads
// into a pool with mem frames free: four blocks per bucket, at most the
// frames the partition reader leaves, and at most the whole input.
func (s sortShape) sampleBlocks(in int) int {
	sf := s.width
	if s.async {
		sf *= 2
	}
	return min(4*((s.mem-sf)/sf), s.mem-sf, in)
}

// sortCount distribution-sorts vs by key into a sliceSink on a fresh volume
// (in dir, or in memory when dir is empty) and returns the output, the
// input's blocks and the sort's counted transfers. It fails the test unless
// the pool's free frames and the volume's live blocks come back exactly.
func sortCount(t *testing.T, s sortShape, dir string, vs []record.Record) ([]record.Record, int, pdm.Stats) {
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
	var sink sliceSink[record.Record]
	if err := DistributionSortTo(f, pool, keyLess, &Options{Width: s.width, Async: s.async}, &sink); err != nil {
		t.Fatalf("%v: %v", s, err)
	}
	st := vol.Stats().Snapshot()
	if pool.Free() != free {
		t.Errorf("%v: %d frames free after the sort, %d before", s, pool.Free(), free)
	}
	if l := vol.Allocated() - vol.FreeBlocks(); l != live {
		t.Errorf("%v: %d live blocks after the sort, %d before", s, l, live)
	}
	return sink.vs, f.Blocks(), st
}

// TestDistributionSortReadsInputSampleAndBuckets pins a one-level sort's
// reads: the partition pass reads the input once, the base cases read each
// bucket once, and the splitters cost their sampled blocks, not a
// second scan of the input. Into a sliceSink the only writes are the
// buckets', so reads = input + writes + sample, exactly, and the mem and
// file backends count the same transfers.
func TestDistributionSortReadsInputSampleAndBuckets(t *testing.T) {
	s := sortShape{mem: 128, width: 2, async: true, n: 512 * 64}
	vs := distinctRecords(s.n)
	_, in, mem := sortCount(t, s, "", vs)
	_, _, file := sortCount(t, s, t.TempDir(), vs)
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
		{sortShape{mem: 512, width: 4, async: true, n: 1 << 18}, map[string]counts{
			"random": {12320, 4128}, "sorted": {12320, 4128}, "reverse": {12316, 4124},
			"all-equal": {20480, 12288}, "few": {28682, 16392}, "clustered": {12321, 4129},
		}},
		{sortShape{mem: 64, width: 1, n: 1 << 15}, map[string]counts{
			"random": {1566, 542}, "sorted": {1568, 544}, "reverse": {1564, 540},
			"all-equal": {2560, 1536}, "few": {3599, 2060}, "clustered": {1566, 542},
		}},
		{sortShape{mem: 40, width: 2, async: true, n: 1 << 13}, map[string]counts{
			"random": {387, 131}, "sorted": {388, 132}, "reverse": {389, 133},
			"all-equal": {640, 384}, "few": {386, 130}, "clustered": {389, 133},
		}},
	} {
		s := tc.shape
		for _, input := range adversarialInputs(s.n, 64) {
			name, vs := input.name, input.records(s.n)
			got, in, st := sortCount(t, s, "", vs)
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
	s := sortShape{mem: 40, width: 2, async: true, n: 1 << 13}
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
		err = DistributionSortTo(f, pool, keyLess, &Options{Width: s.width, Async: s.async}, &sliceSink[record.Record]{})
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
