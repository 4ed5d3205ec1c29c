package extsort

import (
	"errors"
	"testing"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

func distinctRecs(n int) []record.Record {
	// Distinct keys in scrambled order (multiplicative hash of the index).
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{Key: uint64(i) * 2654435761 % 1000003, Val: uint64(i)}
	}
	return out
}

func TestSortViaBTreeCorrect(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 128, MemBlocks: 32, Disks: 1})
	pool := pdm.PoolFor(vol)
	in := distinctRecs(700)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SortViaBTree(f, pool, 8)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsSorted(out, pool, recLess)
	if err != nil || !ok {
		t.Fatalf("baseline output unsorted (%v)", err)
	}
	if out.Len() != f.Len() {
		t.Fatalf("lost records: %d of %d", out.Len(), f.Len())
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
	// The tree is scaffolding: once the output goes, only the input's
	// blocks are left.
	out.Release()
	if live := vol.Allocated() - vol.FreeBlocks(); live != int64(f.Blocks()) {
		t.Fatalf("%d live blocks after releasing the output, want the input's %d", live, f.Blocks())
	}
}

// TestSortViaBTreeFailureRestores crashes the volume at points spread over
// the insert, scan and output phases: each sort must fail with every pool
// frame returned.
func TestSortViaBTreeFailureRestores(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 128, MemBlocks: 32, Disks: 1}
	in := distinctRecs(700)
	clean := pdm.MustVolume(cfg)
	f, err := stream.FromSlice(clean, pdm.PoolFor(clean), record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	inputIOs := clean.Stats().Total()
	if _, err := SortViaBTree(f, pdm.PoolFor(clean), 8); err != nil {
		t.Fatal(err)
	}
	sortIOs := clean.Stats().Total() - inputIOs
	clean.Close()
	for after := uint64(1); after < sortIOs; after += sortIOs / 8 {
		c := cfg
		c.Fault = &pdm.FaultPlan{FailAfter: int64(inputIOs + after)}
		vol := pdm.MustVolume(c)
		pool := pdm.PoolFor(vol)
		f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SortViaBTree(f, pool, 8); !errors.Is(err, pdm.ErrFaulted) {
			t.Errorf("crash after %d of %d: error %v, want ErrFaulted", after, sortIOs, err)
		}
		if pool.InUse() != 0 {
			t.Errorf("crash after %d of %d: %d frames in use", after, sortIOs, pool.InUse())
		}
		vol.Close()
	}
}

func TestBTreeSortLosesToMergeSort(t *testing.T) {
	// The survey's headline comparison: Θ(N·log_B N) insertion sorting vs
	// Θ((N/B)·log_m(N/B)) merge sorting.
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 32, Disks: 1})
	pool := pdm.PoolFor(vol)
	in := distinctRecs(4000)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	if _, err := MergeSort(f, pool, recLess, nil); err != nil {
		t.Fatal(err)
	}
	mergeIO := vol.Stats().Total()
	vol.Stats().Reset()
	if _, err := SortViaBTree(f, pool, 8); err != nil {
		t.Fatal(err)
	}
	btreeIO := vol.Stats().Total()
	if btreeIO < 4*mergeIO {
		t.Fatalf("B-tree sort (%d I/Os) should lose badly to merge sort (%d I/Os)", btreeIO, mergeIO)
	}
}
