package store

import (
	"em/internal/btree"
	"em/internal/index"
	"em/internal/record"
	"em/internal/stream"
)

// mergeResolved merges two key-sorted resolved op slices, the higher Seq
// winning on equal keys (a holds the newer front's ops, but the Seq
// comparison keeps it correct regardless).
func mergeResolved(a, b []Op) []Op {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]Op, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			out = append(out, a[i])
			i++
		case a[i].Key > b[j].Key:
			out = append(out, b[j])
			j++
		default:
			if a[i].Seq >= b[j].Seq {
				out = append(out, a[i])
			} else {
				out = append(out, b[j])
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// opSource streams resolved ops in key order as a stream.Source: runs, each
// key-sorted, that follow one another in key order — a Scan's collected
// range (one run) or a sealed front's chunks. It reads the runs in place,
// so nothing may write them while it is open.
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
// deletes base's record on its key. It is what a Scan serves and what a
// drain bulk-loads.
func patchOps(base stream.Source[record.Record], ops stream.Source[Op]) *stream.Patch[Op] {
	return stream.NewPatch[Op](base, ops,
		func(o Op) uint64 { return o.Key },
		func(o Op) (record.Record, bool) {
			return record.Record{Key: o.Key, Val: o.Val}, !o.Deleted()
		})
}

// Scanner streams the records with keys in [lo, hi] in key order, as of
// the moment Scan was called: a consistent snapshot — the buffered
// overlays were collected under the view lock, the young generation's
// range at open, and the old generation is pinned — that concurrent
// writes and drains cannot disturb. It implements
// stream.Source[record.Record].
type Scanner struct {
	s      *Store
	patch  *stream.Patch[Op]
	sess   *btree.Session
	gen    *generation
	closed bool
}

// Scan opens a snapshot range scan over [lo, hi]. The old B-tree's scan
// runs through a private read session (prefetched leaf reads, its own
// cache budget), overlaid with the buffered operations in range and the
// young generation's, which are read at open through its shared cache.
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
	mem := s.frontMem.appendRange(nil, lo, hi)
	var older []Op
	if s.sealedMem != nil {
		older = s.sealedMem.appendRange(nil, lo, hi)
	}
	gen, young := s.gen, s.young
	gen.refs.Add(1)
	if young != nil {
		young.refs.Add(1)
	}
	s.mu.RUnlock()
	mem = mergeResolved(mem, older)
	if young != nil {
		// The young generation's operations in range join the buffered
		// ones, older than all of them, so the one patch over the old tree
		// serves every layer.
		ops, err := young.appendRange(nil, lo, hi)
		s.releaseGen(young)
		if err != nil {
			s.releaseGen(gen)
			return nil, err
		}
		mem = mergeResolved(mem, ops)
	}

	gen.mu <- struct{}{}
	sess, err := gen.tree.NewSessionOn(s.pool, s.cfg.CacheFrames, s.cfg.Width)
	<-gen.mu
	if err != nil {
		s.releaseGen(gen)
		return nil, err
	}
	base, err := sess.NewScanner(lo, hi, nil)
	if err != nil {
		sess.Close()
		s.releaseGen(gen)
		return nil, err
	}
	return &Scanner{s: s, patch: patchOps(base, &opSource{runs: [][]Op{mem}}), sess: sess, gen: gen}, nil
}

// Next returns the next record in the range; after Close it reports
// stream.ErrClosed, as every index.Scanner does.
func (sc *Scanner) Next() (record.Record, bool, error) {
	if sc.closed {
		return record.Record{}, false, stream.ErrClosed
	}
	return sc.patch.Next()
}

// Close releases the scanner's session and its pin on the generation it
// snapshotted. Idempotent.
func (sc *Scanner) Close() {
	if sc.closed {
		return
	}
	sc.closed = true
	sc.patch.Close()
	if err := sc.sess.Close(); err != nil {
		sc.s.noteErr(err)
	}
	sc.s.releaseGen(sc.gen)
}
