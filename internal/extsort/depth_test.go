package extsort

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// mergeSorted merge-sorts vs at the forced fan-in on a fresh 24-frame,
// four-disk volume and returns the output, failing the test on an error or
// a leaked frame.
func mergeSorted(t *testing.T, vs []record.Record, mode RunMode, width, fanIn int, latency time.Duration) []record.Record {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 24, Disks: 4, DiskLatency: latency})
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MergeSort(f, pool, record.Record.Less, &Options{Width: width, RunMode: mode, ForceFanIn: fanIn})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ToSlice(out, pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("leaked %d frames", pool.InUse())
	}
	return got
}

// TestAsyncMergeSortMatchesSync sorts across run modes, widths and lengths
// at a forced fan-in, where the merge groups read ahead and write behind:
// every output must be the stably sorted input.
func TestAsyncMergeSortMatchesSync(t *testing.T) {
	for _, mode := range []RunMode{LoadSort, ReplacementSelection} {
		for _, width := range []int{1, 2} {
			for _, n := range []int{0, 1, 37, 256, 1000} {
				vs := make([]record.Record, n)
				for i := range vs {
					vs[i] = record.Record{Key: uint64((i * 2654435761) % 65536), Val: uint64(i)}
				}
				if got := mergeSorted(t, vs, mode, width, 3, 0); !slices.Equal(got, sortedCopy(vs)) {
					t.Fatalf("%v w=%d n=%d: output is not the sorted input", mode, width, n)
				}
			}
		}
	}
}

// TestAsyncMergeSortQuick is the quick-check property over arbitrary inputs,
// run against a latency volume so the read-ahead genuinely overlaps I/O:
// every output must be the stably sorted input.
func TestAsyncMergeSortQuick(t *testing.T) {
	f := func(keys []uint16) bool {
		if len(keys) > 800 {
			keys = keys[:800]
		}
		vs := make([]record.Record, len(keys))
		for i, k := range keys {
			vs[i] = record.Record{Key: uint64(k), Val: uint64(i)}
		}
		return slices.Equal(mergeSorted(t, vs, LoadSort, 2, 4, 2*time.Microsecond), sortedCopy(vs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncMergeRunsIdenticalStats forms the same runs on two identical
// volumes and merges them at the same fan-in, once from a pool that holds
// every merge group's streams at 2×Width frames, so they read ahead and
// write behind, and once from a pool that holds them only at Width, on
// demand. The outputs and every merge-phase counter must be identical,
// and the pool's peak must show that the full groups ran at each depth.
func TestAsyncMergeRunsIdenticalStats(t *testing.T) {
	const fanIn = 3
	for _, width := range []int{1, 2} {
		for _, n := range []int{64, 256, 1000} {
			vs := make([]record.Record, n)
			for i := range vs {
				vs[i] = record.Record{Key: uint64((i * 40503) % 4096), Val: uint64(i)}
			}
			run := func(frames int) ([]record.Record, pdm.Stats, int) {
				vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 24, Disks: 4})
				pool := pdm.PoolFor(vol)
				f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, vs)
				if err != nil {
					t.Fatal(err)
				}
				// A small formation pool makes several runs of every n.
				runs, err := FormRuns(f, pdm.NewPool(64, 8), record.Record.Less, &Options{Width: width})
				if err != nil {
					t.Fatal(err)
				}
				vol.Stats().Reset()
				merge := pdm.NewPool(64, frames)
				out, err := MergeRuns(runs, merge, record.Record.Less, &Options{Width: width, ForceFanIn: fanIn})
				if err != nil {
					t.Fatal(err)
				}
				st := vol.Stats().Snapshot()
				got, err := stream.ToSlice(out, pool)
				if err != nil {
					t.Fatal(err)
				}
				if merge.InUse() != 0 {
					t.Fatalf("w=%d n=%d: leaked %d frames", width, n, merge.InUse())
				}
				return got, st, merge.Peak()
			}
			streams := (fanIn + 1) * width
			aOut, aSt, aPeak := run(2 * streams)
			dOut, dSt, dPeak := run(2*streams - 1)
			if !slices.Equal(aOut, dOut) || !slices.Equal(aOut, sortedCopy(vs)) {
				t.Fatalf("w=%d n=%d: outputs differ or are unsorted", width, n)
			}
			if aSt.Reads != dSt.Reads || aSt.Writes != dSt.Writes || aSt.Steps != dSt.Steps {
				t.Fatalf("w=%d n=%d: merge stats differ: ahead %+v, on demand %+v", width, n, aSt, dSt)
			}
			// A short tail group may still fit ahead on the tighter pool.
			if aPeak != 2*streams || dPeak >= 2*streams {
				t.Fatalf("w=%d n=%d: peaks %d ahead and %d on demand, want %d and less", width, n, aPeak, dPeak, 2*streams)
			}
		}
	}
}

// TestMinHeapMatchesContainerHeapSemantics pins the typed heap to the
// container/heap element order for duplicate keys, protecting merge
// determinism across the boxing removal.
func TestMinHeapMatchesContainerHeapSemantics(t *testing.T) {
	h := &minHeap[int]{less: func(a, b int) bool { return a < b }}
	h.items = []int{5, 3, 8, 1, 9, 2, 7}
	h.Init()
	h.Push(4)
	h.Push(0)
	var got []int
	for h.Len() > 0 {
		got = append(got, h.Pop())
	}
	want := []int{0, 1, 2, 3, 4, 5, 7, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop sequence %v, want %v", got, want)
		}
	}
	// ReplaceTop behaves like heap.Fix at the root.
	h.items = []int{2, 5, 3}
	h.Init()
	h.ReplaceTop(7)
	if h.Top() != 3 {
		t.Fatalf("top after ReplaceTop = %d, want 3", h.Top())
	}
}
