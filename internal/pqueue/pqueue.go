// Package pqueue implements the survey's merge-based external priority
// queue: an in-memory insertion heap of Θ(M) records plus a collection of
// sorted runs on disk, merged lazily as minima are consumed. A workload of N
// inserts and N delete-mins costs Θ(Sort(N)) I/Os in total — amortised
// O((1/B)·log_m n) per operation — versus Θ(log_B N) per operation for a
// B-tree used as a priority queue (experiment T7).
package pqueue

import (
	"container/heap"
	"errors"
	"fmt"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// ErrClosed reports use of a closed queue.
var ErrClosed = errors.New("pqueue: closed")

// recHeap is a binary min-heap of records ordered by Record.Less.
type recHeap []record.Record

func (h recHeap) Len() int            { return len(h) }
func (h recHeap) Less(i, j int) bool  { return h[i].Less(h[j]) }
func (h recHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x interface{}) { *h = append(*h, x.(record.Record)) }
func (h *recHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// run is one sorted on-disk run with its open reader and buffered head.
type run struct {
	f    *stream.File[record.Record]
	r    *stream.Reader[record.Record]
	head record.Record
	ok   bool
}

// Queue is an external-memory priority queue of Records ordered by
// (Key, Val). Duplicates are permitted.
type Queue struct {
	vol     *pdm.Volume
	pool    *pdm.Pool
	reserve []*pdm.Frame // frames standing in for the in-memory heap's budget
	mem     recHeap
	memCap  int
	runs    []*run
	maxRuns int
	n       int64
	closed  bool
}

// New creates an empty queue. Half the pool's frames are reserved as the
// in-memory heap's budget; the rest serve run readers and spill writers.
func New(vol *pdm.Volume, pool *pdm.Pool) (*Queue, error) {
	per := vol.BlockBytes() / (record.RecordCodec{}).Size()
	if per < 1 {
		return nil, fmt.Errorf("pqueue: block of %d bytes holds no records", vol.BlockBytes())
	}
	half := pool.Free() / 2
	if half < 1 || pool.Free()-half < 3 {
		return nil, fmt.Errorf("pqueue: pool of %d free frames is too small", pool.Free())
	}
	reserve, err := pool.AllocN(half)
	if err != nil {
		return nil, err
	}
	maxRuns := pool.Free() - 2
	if maxRuns < 2 {
		// A compaction leaves one merged run and the next spill adds one, so
		// two concurrent runs is the irreducible minimum.
		maxRuns = 2
	}
	return &Queue{
		vol:     vol,
		pool:    pool,
		reserve: reserve,
		memCap:  half * per,
		maxRuns: maxRuns,
	}, nil
}

// Len returns the number of records in the queue.
func (q *Queue) Len() int64 { return q.n }

// Runs returns the current number of on-disk runs (for tests and
// instrumentation).
func (q *Queue) Runs() int { return len(q.runs) }

// Push inserts a record.
func (q *Queue) Push(key, val uint64) error {
	if q.closed {
		return ErrClosed
	}
	heap.Push(&q.mem, record.Record{Key: key, Val: val})
	q.n++
	if len(q.mem) >= q.memCap {
		return q.spill()
	}
	return nil
}

// spill writes the in-memory heap as one sorted run and empties it.
func (q *Queue) spill() error {
	if len(q.mem) == 0 {
		return nil
	}
	if len(q.runs) >= q.maxRuns {
		if err := q.compactRuns(); err != nil {
			return err
		}
	}
	// Sorted in place: a sorted slice is still a valid heap, so a failed
	// spill leaves the in-memory records queued.
	record.Sort(q.mem)
	f := stream.NewFile[record.Record](q.vol, record.RecordCodec{})
	w, err := stream.NewWriter(f, q.pool)
	if err != nil {
		return err
	}
	for _, r := range q.mem {
		if err := w.Append(r); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	ru := &run{f: f}
	if err := q.openRun(ru); err != nil {
		return err
	}
	q.runs = append(q.runs, ru)
	q.mem = q.mem[:0]
	return nil
}

// openRun opens the run's reader and primes its head.
func (q *Queue) openRun(ru *run) error {
	r, err := stream.NewReader(ru.f, q.pool)
	if err != nil {
		return err
	}
	ru.r = r
	return q.advance(ru)
}

// advance loads the run's next head record.
func (q *Queue) advance(ru *run) error {
	v, ok, err := ru.r.Next()
	if err != nil {
		return err
	}
	ru.head, ru.ok = v, ok
	if !ok {
		ru.r.Close()
		ru.r = nil
		ru.f.Release()
	}
	return nil
}

// compactRuns k-way merges the unconsumed remainder of every run into a
// single fresh run, freeing reader frames. This bounds simultaneous runs by
// the memory budget, mirroring the survey's cascade of run merges.
func (q *Queue) compactRuns() error {
	live := q.liveRuns()
	if len(live) <= 1 {
		q.runs = live
		return nil
	}
	out := stream.NewFile[record.Record](q.vol, record.RecordCodec{})
	w, err := stream.NewWriter(out, q.pool)
	if err != nil {
		return err
	}
	// Merge by repeatedly taking the minimal head; the run count here is
	// bounded by maxRuns, so a simple linear scan per pop is acceptable for
	// the model (it costs CPU, not I/Os).
	for {
		best := -1
		for i, ru := range live {
			if !ru.ok {
				continue
			}
			if best < 0 || ru.head.Less(live[best].head) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if err := w.Append(live[best].head); err != nil {
			w.Close()
			return err
		}
		if err := q.advance(live[best]); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	merged := &run{f: out}
	if err := q.openRun(merged); err != nil {
		return err
	}
	if merged.ok {
		q.runs = []*run{merged}
	} else {
		q.runs = nil
	}
	return nil
}

// liveRuns filters out exhausted runs.
func (q *Queue) liveRuns() []*run {
	out := q.runs[:0]
	for _, ru := range q.runs {
		if ru.ok {
			out = append(out, ru)
		}
	}
	return out
}

// PopMin removes and returns the minimal record. ok is false when empty.
func (q *Queue) PopMin() (key, val uint64, ok bool, err error) {
	if q.closed {
		return 0, 0, false, ErrClosed
	}
	if q.n == 0 {
		return 0, 0, false, nil
	}
	// Find the minimum among the memory heap and all run heads.
	best := -1 // -1 = memory heap
	var bestRec record.Record
	have := false
	if len(q.mem) > 0 {
		bestRec, have = q.mem[0], true
	}
	for i, ru := range q.runs {
		if ru.ok && (!have || ru.head.Less(bestRec)) {
			bestRec, have, best = ru.head, true, i
		}
	}
	if !have {
		return 0, 0, false, fmt.Errorf("pqueue: internal accounting mismatch (n=%d but no records)", q.n)
	}
	if best < 0 {
		heap.Pop(&q.mem)
	} else if err := q.advance(q.runs[best]); err != nil {
		return 0, 0, false, err
	}
	q.n--
	if q.n%1024 == 0 {
		q.runs = q.liveRuns()
	}
	return bestRec.Key, bestRec.Val, true, nil
}

// Close releases all frames. The queue's remaining contents are discarded.
func (q *Queue) Close() error {
	if q.closed {
		return nil
	}
	q.closed = true
	for _, ru := range q.runs {
		if ru.r != nil {
			ru.r.Close()
			ru.f.Release()
		}
	}
	q.runs = nil
	pdm.ReleaseAll(q.reserve)
	q.reserve = nil
	return nil
}
