package store

import (
	"slices"

	"em/internal/index"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// opSource streams resolved ops in key order as a stream.Source: runs, each
// key-sorted, that follow one another in key order — the range a Scan
// collected from one front (one run) or a sealed front's chunks. It reads
// the runs in place, so nothing may write them while it is open.
type opSource struct {
	runs [][]Op
	i    int // next op of runs[0]
}

func (d *opSource) Next() (Op, bool, error) {
	for len(d.runs) > 0 {
		if r := d.runs[0]; d.i < len(r) {
			d.i++
			return r[d.i-1], true, nil
		}
		d.runs, d.i = d.runs[1:], 0
	}
	return Op{}, false, nil
}

func (d *opSource) Close() {}

// patchOps lays resolved ops, in key order, over base: each op replaces or
// deletes base's record on its key. Each layer of layers is one.
func patchOps(base stream.Source[record.Record], ops stream.Source[Op]) *stream.Patch[Op] {
	return stream.NewPatch[Op](base, ops,
		func(o Op) uint64 { return o.Key },
		func(o Op) (record.Record, bool) {
			return record.Record{Key: o.Key, Val: o.Val}, !o.Deleted()
		})
}

// layers opens the records in [lo, hi] as a stack of patchOps layers,
// oldest first, whose tree scans run on pool with width leaf reads in
// flight: a scan of base's tree, or noRecords when base is nil; young's
// operations in range, when young is given, over a scan of its tree that
// opens only when the range holds a live young key; and one opSource per
// element of ops, each newer than the one before. Empty layers are
// skipped. A drain stacks the whole key space of the generations it merges
// and the sealed front's chunks; a Scan stacks its range of the view, the
// sealed front's operations in it and the front's. Closing the stack
// closes every scan session it opened.
func (s *Store) layers(pool *pdm.Pool, width int, lo, hi uint64, base, young *generation, ops ...[][]Op) (stream.Source[record.Record], error) {
	var src stream.Source[record.Record] = noRecords{}
	if base != nil {
		sc, err := s.openScan(base, pool, width, lo, hi)
		if err != nil {
			return nil, err
		}
		src = sc
	}
	if young != nil {
		y, err := s.openYoung(young, pool, width, lo, hi)
		if err != nil {
			src.Close()
			return nil, err
		}
		if y.i < y.j {
			src = patchOps(src, y)
		}
	}
	for _, runs := range ops {
		if slices.ContainsFunc(runs, func(r []Op) bool { return len(r) > 0 }) {
			src = patchOps(src, &opSource{runs: runs})
		}
	}
	return src, nil
}

// Scanner streams the records with keys in [lo, hi] in key order, as of
// the moment Scan was called: a consistent snapshot — the buffered
// overlays were collected under the view lock, and the generations are
// pinned — that concurrent writes and drains cannot disturb. It
// implements stream.Source[record.Record].
type Scanner struct {
	s          *Store
	src        stream.Source[record.Record]
	gen, young *generation
	closed     bool
}

// Scan opens a snapshot range scan over [lo, hi]: the view's layers
// stacked as a drain stacks them, the old tree under the young
// generation's operations in range under the sealed front's and the
// front's. Each generation is scanned through a private read session —
// prefetched leaf reads, Width in flight, and a cache of scanFrames, 3 +
// 2·Width frames of the store's pool until Close — so a Scan takes 3 +
// 2·Width frames, twice that when the young generation holds a live key in
// range.
func (s *Store) Scan(lo, hi uint64) (index.Scanner, error) {
	var out index.Scanner
	err := s.gate.Do(func() error {
		sc, err := s.scan(lo, hi)
		if err != nil {
			return err
		}
		out = sc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scan is one un-gated snapshot-scan attempt.
func (s *Store) scan(lo, hi uint64) (index.Scanner, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	// Only the operations in range are copied under the view lock — the
	// overlays are in key order, so that is O(log F + k) for a front of F
	// ops — and writers wait no longer than that.
	sealed := [][]Op{s.sealedMem.appendRange(nil, lo, hi)}
	front := [][]Op{s.frontMem.appendRange(nil, lo, hi)}
	gen, young := s.gen, s.young
	gen.refs.Add(1)
	if young != nil {
		young.refs.Add(1)
	}
	s.mu.RUnlock()
	src, err := s.layers(s.pool, s.cfg.Width, lo, hi, gen, young, sealed, front)
	if err != nil {
		s.releaseGens(gen, young)
		return nil, err
	}
	return &Scanner{s: s, src: src, gen: gen, young: young}, nil
}

// Next returns the next record in the range; after Close it reports
// stream.ErrClosed, as every index.Scanner does.
func (sc *Scanner) Next() (record.Record, bool, error) {
	if sc.closed {
		return record.Record{}, false, stream.ErrClosed
	}
	return sc.src.Next()
}

// Close closes the scanner's sessions and drops its pins on the
// generations it snapshotted. Idempotent.
func (sc *Scanner) Close() {
	if sc.closed {
		return
	}
	sc.closed = true
	sc.src.Close()
	sc.s.releaseGens(sc.gen, sc.young)
}
