package stream

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"em/internal/pdm"
	"em/internal/record"
)

// TestSampleBlocksReadsWholeDistinctBlocks: a sample is whole blocks of
// the file, distinct, a short last block honoured, at one read and one
// frame per block — at most as many as the pool has free, at most the
// file; the same seed draws the same sample, and the frames come back.
func TestSampleBlocksReadsWholeDistinctBlocks(t *testing.T) {
	const n = 4*50 + 3 // 51 blocks of 4 records, the last holding 3
	for _, tc := range []struct{ mem, blocks int }{
		{mem: 32, blocks: 10},
		{mem: 4, blocks: 10}, // more than the pool: as many as it has free
		{mem: 64, blocks: 51},
		{mem: 64, blocks: 80}, // more than the file: all of it
	} {
		vol, pool := newEnv(t, tc.mem, 1)
		vs := make([]record.Record, n)
		for i := range vs {
			vs[i] = record.Record{Key: uint64(i), Val: uint64(i)}
		}
		f, err := FromSlice(vol, pool, record.RecordCodec{}, vs)
		if err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		got, err := SampleBlocks(f, pool, tc.blocks, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		want := min(tc.blocks, tc.mem, f.Blocks())
		if reads := vol.Stats().Reads; reads != uint64(want) {
			t.Errorf("mem %d, %d blocks: %d reads, want %d", tc.mem, tc.blocks, reads, want)
		}
		if peak := pool.Peak(); peak != want {
			t.Errorf("mem %d, %d blocks: %d frames at peak, want %d", tc.mem, tc.blocks, peak, want)
		}
		if pool.InUse() != 0 {
			t.Errorf("mem %d: %d frames held after the sample", tc.mem, pool.InUse())
		}
		// Keys are positions: whole blocks in file order, each counted once.
		blocks := map[uint64]int{}
		for i, v := range got {
			if i > 0 && v.Key <= got[i-1].Key {
				t.Fatalf("mem %d: sample out of file order at %d", tc.mem, i)
			}
			blocks[v.Key/4]++
		}
		if len(blocks) != want {
			t.Errorf("mem %d: records from %d blocks, want %d", tc.mem, len(blocks), want)
		}
		for b, c := range blocks {
			if full := min(4, n-int(b)*4); c != full {
				t.Errorf("mem %d: block %d gave %d records, want %d", tc.mem, b, c, full)
			}
		}
		again, err := SampleBlocks(f, pool, tc.blocks, rand.New(rand.NewSource(1)))
		if err != nil || !slices.Equal(got, again) {
			t.Errorf("mem %d: the same seed drew a different sample (%v)", tc.mem, err)
		}
	}
}

// TestSampleBlocksIsOneBatch: with 3 frames free on 4 disks a 7-block
// sample reads 3 blocks as one batch, costing the largest share any one
// disk serves; an exhausted pool fails cleanly.
func TestSampleBlocksIsOneBatch(t *testing.T) {
	const disks = 4
	vol, pool := newEnv(t, 8, disks)
	vs := make([]record.Record, 4*40)
	for i := range vs {
		vs[i] = record.Record{Key: uint64(i)}
	}
	f, err := FromSlice(vol, pool, record.RecordCodec{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	held, err := pool.AllocN(5)
	if err != nil {
		t.Fatal(err)
	}
	defer pdm.ReleaseAll(held)
	vol.Stats().Reset()
	got, err := SampleBlocks(f, pool, 7, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var share [disks]uint64
	for _, v := range got {
		if v.Key%4 == 0 {
			share[BlockAddrs(f)[v.Key/4]%disks]++
		}
	}
	if st := vol.Stats(); len(got) != 3*4 || st.Reads != 3 || st.Steps != slices.Max(share[:]) {
		t.Errorf("7 blocks into 3 free frames: %d records, %d reads in %d steps, want 12, 3 in %d",
			len(got), st.Reads, st.Steps, slices.Max(share[:]))
	}
	rest, err := pool.AllocN(pool.Free())
	if err != nil {
		t.Fatal(err)
	}
	defer pdm.ReleaseAll(rest)
	if _, err := SampleBlocks(f, pool, 7, rand.New(rand.NewSource(2))); !errors.Is(err, pdm.ErrNoFrames) {
		t.Errorf("sample from an exhausted pool: %v, want ErrNoFrames", err)
	}
}
