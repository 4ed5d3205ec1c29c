package extsort

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"em/internal/record"
)

// keyLess orders by key alone, so records with equal keys are told apart
// only by their values and an unstable sort shows.
func keyLess(a, b record.Record) bool { return a.Key < b.Key }

// dupRecs returns n records over about sixteen distinct keys; Val is the
// input position.
func dupRecs(rng *rand.Rand, n int) []record.Record {
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{Key: uint64(rng.Intn(16)), Val: uint64(i)}
	}
	return out
}

var memSortLens = []int{0, 1, 2, memSortChunk - 1, memSortChunk, memSortChunk + 1, 2*memSortChunk + 1, 1<<17 + 3}

// TestSortEmitMatchesSliceStable is the kernel's property: whatever the
// buffer length and the CPU count — one chunk, the two-way merge, the heap —
// the emitted sequence is sort.SliceStable's.
func TestSortEmitMatchesSliceStable(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			for _, n := range memSortLens {
				in := dupRecs(rng, n)
				want := append([]record.Record(nil), in...)
				sort.SliceStable(want, func(i, j int) bool { return keyLess(want[i], want[j]) })
				got := make([]record.Record, 0, n)
				err := sortEmit(in, keyLess, stableKernel(keyLess), func(v record.Record) error {
					got = append(got, v)
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if len(got) != n {
					t.Fatalf("n=%d: emitted %d records", n, len(got))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d: record %d = %+v, want %+v", n, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// dupWholeRecs returns n records over about sixteen distinct keys and four
// distinct values, so whole records repeat.
func dupWholeRecs(rng *rand.Rand, n int) []record.Record {
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{Key: uint64(rng.Intn(16)), Val: uint64(rng.Intn(4))}
	}
	return out
}

// TestSortEmitRecordKernelMatchesSliceStable is the Record kernel's
// property: on records with repeated keys, values and whole records, at
// every buffer length and CPU count, the unstable kernel emits exactly
// sort.SliceStable's sequence by Record.Less.
func TestSortEmitRecordKernelMatchesSliceStable(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			for _, n := range memSortLens {
				in := dupWholeRecs(rng, n)
				want := append([]record.Record(nil), in...)
				sort.SliceStable(want, func(i, j int) bool { return want[i].Less(want[j]) })
				got := make([]record.Record, 0, n)
				err := sortEmit(in, recLess, recordKernel, func(v record.Record) error {
					got = append(got, v)
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d: emitted sequence is not sort.SliceStable's", n)
				}
			}
		})
	}
}

// TestSortEmitStopsAtEmitError fails emit at a random position: sortEmit
// returns that error and does not call emit again. Every chunk sort was
// joined before the first emit — no comparison is ever in progress while
// emit runs, since the merge compares between emits on the caller's
// goroutine — so a failed emit leaves no goroutine behind. 4·memSortChunk+1
// stands in for the longest length: it reaches the heap at eight CPUs too.
func TestSortEmitStopsAtEmitError(t *testing.T) {
	errSink := errors.New("sink full")
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(procs)))
			for _, n := range append(memSortLens[1:7:7], 4*memSortChunk+1) {
				failAt := rng.Intn(n)
				var comparing atomic.Int32
				less := func(a, b record.Record) bool {
					comparing.Add(1)
					defer comparing.Add(-1)
					return keyLess(a, b)
				}
				calls := 0
				err := sortEmit(dupRecs(rng, n), less, stableKernel(less), func(record.Record) error {
					if c := comparing.Load(); c != 0 {
						t.Errorf("n=%d: %d comparisons in progress during emit %d", n, c, calls)
					}
					calls++
					if calls == failAt+1 {
						return errSink
					}
					return nil
				})
				if !errors.Is(err, errSink) {
					t.Fatalf("n=%d failAt=%d: err = %v, want the emit error", n, failAt, err)
				}
				if calls != failAt+1 {
					t.Fatalf("n=%d failAt=%d: emit called %d times", n, failAt, calls)
				}
			}
		})
	}
}

var memSortSink record.Record

// BenchmarkMemSort times the kernel on one base-case buffer of the repo
// benchmark's build geometry (2^17 records): sorting and the merge on the
// way out, with an emit that only keeps the record. Random keys and one
// repeated key (values in input order) each go through the generic stable
// kernel and through the Record kernel; the generic all-equal case uses
// the key-only comparator, so every comparison is a tie.
func BenchmarkMemSort(b *testing.B) {
	const n = 1 << 17
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		key  func() uint64
		less func(a, b record.Record) bool
		kern kernel[record.Record]
	}{
		{"random", rng.Uint64, recLess, stableKernel(recLess)},
		{"record-kernel", rng.Uint64, recLess, recordKernel},
		{"equal", func() uint64 { return 7 }, keyLess, stableKernel(keyLess)},
		{"record-kernel-equal", func() uint64 { return 7 }, recLess, recordKernel},
	} {
		b.Run(tc.name, func(b *testing.B) {
			in := make([]record.Record, n)
			for i := range in {
				in[i] = record.Record{Key: tc.key(), Val: uint64(i)}
			}
			buf := make([]record.Record, n)
			emit := func(v record.Record) error {
				memSortSink = v
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(buf, in)
				b.StartTimer()
				if err := sortEmit(buf, tc.less, tc.kern, emit); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
		})
	}
}
