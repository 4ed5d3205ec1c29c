// Package extsort implements the survey's two optimal external sorting
// paradigms — multiway merge sort and distribution sort — plus the run
// formation techniques (load-sort and replacement selection) and the
// Θ(N·log_B N) B-tree-insertion strawman they are compared against.
//
// Both optimal sorts perform Θ(n·log_m n) I/Os where n = N/B blocks and
// m = M/B memory blocks: one pass to form Θ(N/M) initial runs or buckets,
// then ⌈log_m(N/M)⌉ passes of (M/B)-way merging or splitting. All buffers
// come from a pdm.Pool, so the memory bound M is enforced, and all I/O flows
// through pdm counters, so the claimed pass structure is directly observable.
//
// The internal sort both paradigms bottom out in (a run of load-sort run
// formation, a memory-sized bucket of the distribution sort) is one
// function, sortEmit in memsort.go. Its memory is the caller's record
// buffer alone, charged to the pool as that buffer's block equivalent
// (bufFrames): the buffer is sorted in place, one chunk per CPU, and the
// chunks are merged while their records are appended to the sink, so there
// is no scratch buffer to charge. Its output does not depend on the CPU
// count; neither do the reads and appends around it.
//
// Each chunk is sorted in place by a kernel the sorter fixes when it is
// built. The generic entry points (MergeSort, FormRuns, DistributionSort,
// DistributionSortTo) sort each chunk stably, since their less may tie
// records that differ. The Record entry points (SortRecords, SortIndex)
// sort with record.Sort, an in-place radix sort that is not stable and need
// not be: Record.Less is a total order, so the bytes they emit are the
// stable sort's.
package extsort

import (
	"errors"
	"fmt"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// ErrEmptyPool reports that the pool cannot support even the minimal
// reader/writer configuration. It wraps pdm.ErrNoFrames, so every layer's
// starved-pool errors are uniform: errors.Is(err, pdm.ErrNoFrames) holds
// whether the starvation surfaced here, in a session open, or in a
// sharded fan-out.
var ErrEmptyPool = fmt.Errorf("extsort: pool too small for external sort: %w", pdm.ErrNoFrames)

// RunMode selects the run-formation technique.
type RunMode int

const (
	// LoadSort fills memory, sorts, and writes a run of exactly M records.
	LoadSort RunMode = iota
	// ReplacementSelection streams through an M-record tournament heap,
	// producing runs of expected length 2M on random input and a single run
	// on already-sorted input.
	ReplacementSelection
)

// String names the run mode.
func (m RunMode) String() string {
	switch m {
	case LoadSort:
		return "load-sort"
	case ReplacementSelection:
		return "replacement-selection"
	default:
		return fmt.Sprintf("RunMode(%d)", int(m))
	}
}

// Options tunes an external sort.
type Options struct {
	// Width is the striping width used by all readers and writers; set it to
	// the volume's disk count D to enable disk striping. Zero means 1.
	Width int
	// RunMode selects the run-formation technique for merge sort.
	RunMode RunMode
	// ForceFanIn caps the merge fan-in (or distribution fan-out) below what
	// the pool would allow; zero means use the maximum. Experiments use it
	// to sweep the effective M/B.
	ForceFanIn int
	// Deprecated: every stream reads ahead or writes behind exactly when
	// the sort's plan already holds its second group; kept until the repo
	// benchmark stops setting it.
	Async bool
}

func (o *Options) width() int {
	if o == nil || o.Width < 1 {
		return 1
	}
	return o.Width
}

func (o *Options) runMode() RunMode {
	if o == nil {
		return LoadSort
	}
	return o.RunMode
}

// openSource opens a Width-striped reader over f at depth: on demand at
// 1, reading ahead at 2.
func openSource[T any](f *stream.File[T], pool *pdm.Pool, opts *Options, depth int) (stream.Source[T], error) {
	return stream.OpenSource(f, pool, opts.width(), depth)
}

// openSink opens a Width-striped writer appending to f at depth: flushing
// on demand at 1, writing behind at 2.
func openSink[T any](f *stream.File[T], pool *pdm.Pool, opts *Options, depth int) (stream.Sink[T], error) {
	return stream.OpenSink(f, pool, opts.width(), depth)
}

// forEach streams every record of f through fn with a reader at depth,
// the openSource analogue of stream.ForEach.
func forEach[T any](f *stream.File[T], pool *pdm.Pool, opts *Options, depth int, fn func(T) error) error {
	r, err := openSource(f, pool, opts, depth)
	if err != nil {
		return err
	}
	defer r.Close()
	return stream.Drain(r, fn)
}

// fanOut returns the most streams of sf frames each that free frames hold
// beside one more stream of sf frames — a merge's fan-in beside its output
// writer, a distribution level's bucket count beside its reader — capped
// by ForceFanIn. Disk striping treats a group of Width blocks as one
// logical block, so each stream needs at least Width frames and the
// fan-in drops from m to roughly m/D: exactly the suboptimality factor the
// survey attributes to striped merge sort.
func fanOut(free, sf int, opts *Options) int {
	fo := (free - sf) / sf
	if opts != nil && opts.ForceFanIn > 0 && opts.ForceFanIn < fo {
		fo = opts.ForceFanIn
	}
	return fo
}

// MergeSort sorts f by less into a new file using multiway external merge
// sort. The input file is not modified.
func MergeSort[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options) (*stream.File[T], error) {
	return mergeSort(f, pool, less, stableKernel(less), opts)
}

// SortRecords is MergeSort by record.Record.Less, its load-sort runs
// sorted in memory by recordKernel.
func SortRecords(f *stream.File[record.Record], pool *pdm.Pool, opts *Options) (*stream.File[record.Record], error) {
	return mergeSort(f, pool, record.Record.Less, recordKernel, opts)
}

// mergeSort is MergeSort with kern sorting each load-sort run in memory.
func mergeSort[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, kern kernel[T], opts *Options) (*stream.File[T], error) {
	runs, err := formRuns(f, pool, less, kern, opts)
	if err != nil {
		return nil, err
	}
	out, err := MergeRuns(runs, pool, less, opts)
	if err != nil {
		// MergeRuns released the runs and its intermediates.
		return nil, err
	}
	for _, r := range runs {
		if r != out {
			r.Release()
		}
	}
	return out, nil
}

// FormRuns performs the run-formation pass, returning sorted runs whose
// concatenation is a permutation of f. A load-sorted run keeps records
// tied by less in their input order.
func FormRuns[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options) ([]*stream.File[T], error) {
	return formRuns(f, pool, less, stableKernel(less), opts)
}

// formRuns is FormRuns with kern sorting each load-sort run in memory.
// Either technique holds memRecords records: every frame the input reader
// and the run writer leave free, both at depth 1, reserved from the pool
// for the whole pass.
func formRuns[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool, kern kernel[T], opts *Options) ([]*stream.File[T], error) {
	bufFrames := pool.Free() - 2*opts.width()
	if bufFrames < 1 {
		return nil, fmt.Errorf("%w: %d frames free, need > %d", ErrEmptyPool, pool.Free(), 2*opts.width())
	}
	reserve, err := pool.AllocN(bufFrames)
	if err != nil {
		return nil, err
	}
	defer pdm.ReleaseAll(reserve)
	r, err := openSource(f, pool, opts, 1)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	memRecords := bufFrames * f.PerBlock()
	var runs []*stream.File[T]
	if opts.runMode() == ReplacementSelection {
		runs, err = formRunsReplacement(f, r, pool, less, opts, memRecords)
	} else {
		runs, err = formRunsLoadSort(f, r, pool, less, kern, opts, memRecords)
	}
	if err == nil && len(runs) == 0 {
		// An empty input is one empty run.
		runs = append(runs, stream.NewFile[T](f.Vol(), f.Codec()))
	}
	return runs, err
}

// formRunsLoadSort fills memory from r, sorts, writes, repeats. Each run
// holds exactly memRecords records except the last; sortEmit sorts a run
// inside the reserved buffer with kern and needs no other.
func formRunsLoadSort[T any](f *stream.File[T], r stream.Source[T], pool *pdm.Pool, less func(a, b T) bool, kern kernel[T], opts *Options, memRecords int) ([]*stream.File[T], error) {
	var runs []*stream.File[T]
	// fail releases every run already written (a concurrent pool consumer
	// can starve a mid-pass allocation), so an aborted pass strands nothing.
	fail := func(err error) ([]*stream.File[T], error) {
		for _, run := range runs {
			run.Release()
		}
		return nil, err
	}
	buf := make([]T, 0, memRecords)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		run := stream.NewFile[T](f.Vol(), f.Codec())
		rw, err := openSink(run, pool, opts, 1)
		if err != nil {
			return err
		}
		if err := sortEmit(buf, less, kern, rw.Append); err != nil {
			rw.Close()
			run.Release()
			return err
		}
		if err := rw.Close(); err != nil {
			run.Release()
			return err
		}
		runs = append(runs, run)
		buf = buf[:0]
		return nil
	}
	for {
		v, ok, err := r.Next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		buf = append(buf, v)
		if len(buf) == memRecords {
			if err := flush(); err != nil {
				return fail(err)
			}
		}
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	return runs, nil
}

// rsItem is a replacement-selection heap entry: run-generation first, then
// the record ordering.
type rsItem[T any] struct {
	gen int
	v   T
}

// rsHeap orders replacement-selection entries without interface boxing.
func rsHeap[T any](less func(a, b T) bool) *minHeap[rsItem[T]] {
	return &minHeap[rsItem[T]]{less: func(a, b rsItem[T]) bool {
		if a.gen != b.gen {
			return a.gen < b.gen
		}
		return less(a.v, b.v)
	}}
}

// formRunsReplacement streams r through a memRecords-record tournament,
// emitting the smallest element that can still extend the current run. On
// random input the expected run length is 2M (the survey's "snowplow"
// argument); on sorted input it produces a single run.
func formRunsReplacement[T any](f *stream.File[T], r stream.Source[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options, memRecords int) ([]*stream.File[T], error) {
	h := rsHeap[T](less)
	// Prime the heap with up to M records, all in generation 0.
	for len(h.items) < memRecords {
		v, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		h.items = append(h.items, rsItem[T]{gen: 0, v: v})
	}
	h.Init()

	var runs []*stream.File[T]
	var cur *stream.File[T]
	var cw stream.Sink[T]
	// fail closes the open run writer (returning its frames), abandons the
	// partial run, and releases every completed run.
	fail := func(err error) ([]*stream.File[T], error) {
		if cw != nil {
			cw.Close()
		}
		if cur != nil {
			cur.Release()
		}
		for _, run := range runs {
			run.Release()
		}
		return nil, err
	}
	curGen := 0
	openRun := func() error {
		cur = stream.NewFile[T](f.Vol(), f.Codec())
		w, err := openSink(cur, pool, opts, 1)
		if err != nil {
			cur.Release()
			cur = nil
			return err
		}
		cw = w
		return nil
	}
	closeRun := func() error {
		if cw == nil {
			return nil
		}
		err := cw.Close()
		cw = nil
		if err != nil {
			return err
		}
		runs = append(runs, cur)
		cur = nil
		return nil
	}

	for h.Len() > 0 {
		it := h.Pop()
		if cw == nil || it.gen != curGen {
			if err := closeRun(); err != nil {
				return fail(err)
			}
			curGen = it.gen
			if err := openRun(); err != nil {
				return fail(err)
			}
		}
		if err := cw.Append(it.v); err != nil {
			return fail(err)
		}
		// Refill from input: the incoming record joins the current run if it
		// is not smaller than the record just emitted, else the next run.
		nv, ok, err := r.Next()
		if err != nil {
			return fail(err)
		}
		if ok {
			gen := curGen
			if less(nv, it.v) {
				gen = curGen + 1
			}
			h.Push(rsItem[T]{gen: gen, v: nv})
		}
	}
	if err := closeRun(); err != nil {
		return fail(err)
	}
	return runs, nil
}

// MergeRuns repeatedly merges sorted runs fan-in at a time until one remains.
// The total cost is at most one read+write of the data per merge level, i.e.
// ⌈log_fanin(#runs)⌉ passes: a level's lone tail run is carried into the
// next level untouched.
//
// A merge group opens its readers and output writer at the depth
// stream.Depth gives them in the pool's free frames. One group deep, when
// all of them fit at 2×Width, each input run's reader keeps its next block
// group in flight while the merge consumes buffered records — the survey's
// forecasting technique for D-disk merging. A sorted run is consumed in order, so the
// block the forecast selects (the one holding the smallest pending key of
// that run) is exactly the run's next sequential block, and read-ahead
// fetches it before the merge blocks on it; the write-behind output
// overlaps symmetrically. Depth never changes the counted I/Os.
//
// On error the input runs and every intermediate merged file are released,
// so no blocks stay stranded on the volume.
func MergeRuns[T any](runs []*stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options) (*stream.File[T], error) {
	if len(runs) == 0 {
		return nil, errors.New("extsort: MergeRuns with no runs")
	}
	releaseAll := func(files []*stream.File[T]) {
		for _, f := range files {
			f.Release()
		}
	}
	fanin := fanOut(pool.Free(), opts.width(), opts)
	if fanin < 2 {
		releaseAll(runs)
		return nil, fmt.Errorf("%w: fan-in %d", ErrEmptyPool, fanin)
	}
	level := runs
	for len(level) > 1 {
		var next []*stream.File[T]
		for lo := 0; lo < len(level); lo += fanin {
			hi := min(lo+fanin, len(level))
			if hi-lo == 1 {
				next = append(next, level[lo])
				continue
			}
			merged, err := mergeOnce(level[lo:hi], pool, less, opts)
			if err != nil {
				// Release this level's finished intermediates and every
				// unconsumed input; inputs already consumed by earlier
				// groups re-release as no-ops.
				releaseAll(next)
				releaseAll(level)
				return nil, err
			}
			for _, r := range level[lo:hi] {
				r.Release()
			}
			next = append(next, merged)
		}
		level = next
	}
	return level[0], nil
}

// mergeItem is a k-way merge heap entry.
type mergeItem[T any] struct {
	v   T
	src int
}

// mergeOnce merges two or more sorted runs into one sorted file in a single
// pass: one reader per run plus one writer, all at the depth stream.Depth
// gives them in the pool's free frames.
func mergeOnce[T any](runs []*stream.File[T], pool *pdm.Pool, less func(a, b T) bool, opts *Options) (*stream.File[T], error) {
	depth := stream.Depth(pool.Free(), len(runs)+1, opts.width())
	vol := runs[0].Vol()
	out := stream.NewFile[T](vol, runs[0].Codec())
	ow, err := openSink(out, pool, opts, depth)
	if err != nil {
		return nil, err
	}
	// fail abandons the partially written output: frames back to the pool,
	// blocks back to the volume.
	fail := func(err error) (*stream.File[T], error) {
		ow.Close()
		out.Release()
		return nil, err
	}
	readers := make([]stream.Source[T], len(runs))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Close()
			}
		}
	}()
	h := &minHeap[mergeItem[T]]{less: func(a, b mergeItem[T]) bool { return less(a.v, b.v) }}
	for i, run := range runs {
		r, err := openSource(run, pool, opts, depth)
		if err != nil {
			return fail(err)
		}
		readers[i] = r
		v, ok, err := r.Next()
		if err != nil {
			return fail(err)
		}
		if ok {
			h.items = append(h.items, mergeItem[T]{v: v, src: i})
		}
	}
	h.Init()
	for h.Len() > 0 {
		it := h.Top()
		if err := ow.Append(it.v); err != nil {
			return fail(err)
		}
		v, ok, err := readers[it.src].Next()
		if err != nil {
			return fail(err)
		}
		if ok {
			h.ReplaceTop(mergeItem[T]{v: v, src: it.src})
		} else {
			h.Pop()
		}
	}
	if err := ow.Close(); err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// IsSorted scans f and reports whether it is ordered by less.
func IsSorted[T any](f *stream.File[T], pool *pdm.Pool, less func(a, b T) bool) (bool, error) {
	r, err := stream.NewReader(f, pool)
	if err != nil {
		return false, err
	}
	defer r.Close()
	var prev T
	first := true
	for {
		v, ok, err := r.Next()
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		if !first && less(v, prev) {
			return false, nil
		}
		prev = v
		first = false
	}
}

// MergePassCount returns the number of merge passes ⌈log_fanin(runs)⌉ the
// merge phase performs — the quantity plotted in experiment F1.
func MergePassCount(runs, fanin int) int {
	if runs <= 1 {
		return 0
	}
	if fanin < 2 {
		return -1
	}
	passes := 0
	for runs > 1 {
		runs = (runs + fanin - 1) / fanin
		passes++
	}
	return passes
}
