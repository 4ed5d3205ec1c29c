package extsort

import (
	"runtime"
	"slices"
	"sync"

	"em/internal/record"
)

// memSortChunk is the fewest records worth a chunk of their own: below two
// chunks' worth a buffer is sorted on the calling goroutine, so short last
// runs never start one.
const memSortChunk = 1 << 12

// compare derives the three-way comparator the slices sorts take from less.
func compare[T any](less func(a, b T) bool) func(a, b T) int {
	return func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	}
}

// kernel is how a sorter sorts in memory, in place, fixed when the sorter
// is built: sort takes each chunk of a run or base case, sample the
// distribution sort's splitter sample, whose ties split alike and so may
// land in any order.
type kernel[T any] struct {
	sort   func(buf []T)
	sample func(buf []T)
}

// stableKernel is the kernel of the generic entry points, whose less may
// tie records that differ: chunks are sorted stably with no scratch space
// (slices.SortStableFunc is an in-place insertion sort plus SymMerge), the
// sample with pdqsort, at half SymMerge's time. Being generic, both move
// records with typed assignments rather than through a reflection swapper.
func stableKernel[T any](less func(a, b T) bool) kernel[T] {
	cmp := compare(less)
	return kernel[T]{
		sort:   func(buf []T) { slices.SortStableFunc(buf, cmp) },
		sample: func(buf []T) { slices.SortFunc(buf, cmp) },
	}
}

// recordKernel is the kernel of the Record entry points: record.Sort, an
// in-place radix sort that allocates nothing. It is not stable, and need
// not be: Record.Less is a total order, so records it ties are equal in
// bytes and every sorted order of a buffer is the same byte sequence.
var recordKernel = kernel[record.Record]{sort: record.Sort, sample: record.Sort}

// sortEmit passes the records of buf to emit in sorted order, stopping at
// emit's first error. It is the in-memory sort of load-sort run formation
// and of the distribution sort's base case, and it works inside the one
// buffer its caller charged to the pool: buf is cut into
// min(GOMAXPROCS, len/memSortChunk) contiguous chunks, each sorted in place
// by kern on its own goroutine, and once all of them have been joined the
// chunks are merged by less while emitting — the final merge levels of an
// in-place sort are never run and no second record buffer exists. Ties go
// to the lower chunk, which holds the earlier records, so with a stable
// kernel the emitted order is the one stable order whatever the chunk
// count, and with recordKernel, whose ties are equal in bytes, it is the
// same bytes. Afterwards buf holds the same records, each chunk sorted.
func sortEmit[T any](buf []T, less func(a, b T) bool, kern kernel[T], emit func(T) error) error {
	k := min(runtime.GOMAXPROCS(0), len(buf)/memSortChunk)
	if k < 2 {
		kern.sort(buf)
		return emitAll(buf, emit)
	}
	chunks := make([][]T, k)
	var wg sync.WaitGroup
	for i := range chunks {
		chunks[i] = buf[i*len(buf)/k : (i+1)*len(buf)/k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			kern.sort(chunks[i])
		}()
	}
	wg.Wait()
	if k == 2 {
		return mergeEmit2(chunks[0], chunks[1], less, emit)
	}
	return mergeEmit(chunks, less, emit)
}

// mergeEmit2 merges two sorted chunks into emit; b's head goes first only
// when it is strictly less than a's.
func mergeEmit2[T any](a, b []T, less func(a, b T) bool, emit func(T) error) error {
	for len(a) > 0 && len(b) > 0 {
		var v T
		if less(b[0], a[0]) {
			v, b = b[0], b[1:]
		} else {
			v, a = a[0], a[1:]
		}
		if err := emit(v); err != nil {
			return err
		}
	}
	if err := emitAll(a, emit); err != nil {
		return err
	}
	return emitAll(b, emit)
}

func emitAll[T any](vs []T, emit func(T) error) error {
	for _, v := range vs {
		if err := emit(v); err != nil {
			return err
		}
	}
	return nil
}

// mergeEmit merges any number of sorted, non-empty chunks into emit through
// the typed heap, equal keys ordered by chunk index.
func mergeEmit[T any](chunks [][]T, less func(a, b T) bool, emit func(T) error) error {
	h := &minHeap[mergeItem[T]]{less: func(a, b mergeItem[T]) bool {
		if less(a.v, b.v) {
			return true
		}
		return a.src < b.src && !less(b.v, a.v)
	}}
	for i, c := range chunks {
		h.items = append(h.items, mergeItem[T]{v: c[0], src: i})
		chunks[i] = c[1:]
	}
	h.Init()
	for h.Len() > 0 {
		it := h.Top()
		if err := emit(it.v); err != nil {
			return err
		}
		if c := chunks[it.src]; len(c) > 0 {
			h.ReplaceTop(mergeItem[T]{v: c[0], src: it.src})
			chunks[it.src] = c[1:]
		} else {
			h.Pop()
		}
	}
	return nil
}
