package btree

import (
	"encoding/binary"
	"slices"
	"time"

	"em/internal/cache"
	"em/internal/index"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// Prefetched range scans. A range query's leaf chain is a forecastable
// sequential source, exactly like the merge runs the stream package already
// prefetches: the leaves it will visit are known ahead of time whenever the
// parent level is in memory, because an internal node lists its children —
// consecutive leaves — in key order. The Scanner exploits that: it takes
// upcoming leaf addresses from cache-resident parents (a residency probe,
// never an extra read) and keeps up to Width leaf reads in flight through
// the volume's async engine, booking each group on the disks before it
// waits out the one it is about to read, so at model latency a scan takes
// its parallel steps and no more; when a parent is not resident it degrades
// to pipelining one leaf ahead along the sibling chain, which is always
// known once the current leaf has arrived. Leaves are read into the
// scanner's own pool frames rather than admitted to the buffer manager — a
// scan touches each leaf once, and a scan-resistant path keeps it from
// evicting the hot internal nodes point queries depend on — except that
// leaves already resident are served from the cache, so counted reads never
// exceed the synchronous Range's from the same cache state.

// ScanOptions tunes a prefetched range scan.
type ScanOptions struct {
	// Width is the number of leaf reads the scanner keeps in flight (and
	// the size of its fetch groups); the scanner holds 2×Width pool frames.
	// Zero means the volume's disk count D, the width at which a forecast
	// group costs one parallel step.
	Width int
}

func (o *ScanOptions) width(disks int) int {
	if o == nil || o.Width < 1 {
		if disks < 1 {
			return 1
		}
		return disks
	}
	return o.Width
}

// pathLevel is the scanner's forecast cursor at one internal level: the
// node it is currently inside, the child slot handed to the level below,
// and the node's separator count.
type pathLevel struct {
	addr int64
	slot int
	cnt  int
}

// leafGroup is one group of leaves, either being consumed or in flight.
// Each slot is served from a pinned cache page (the leaf was resident) or
// from one of the scanner's private frames (read off the volume by one
// batch, whose deadline and error the scanner keeps until it opens the
// group).
type leafGroup struct {
	addrs  []int64
	pages  []*cache.Page
	frames []*pdm.Frame
	due    time.Time
	err    error
}

// Scanner streams every record with lo <= key <= hi in key order, keeping
// up to Width leaf reads in flight. It implements stream.Source[Record], so
// a scan can feed anything a file reader can — stream.Drain, or even a
// bulk load of a second tree. The scanner holds 2×Width frames from the
// pool it was created with and pins cache pages only transiently (plus any
// resident leaves of the two live groups); Close releases everything.
// NextBatch hands out a leaf's records at a time: a caller draining it so
// (the sharded scanner does) holds one leaf of decoded records, at most
// one block of bytes, on the heap beside the 2×Width pool frames.
//
// A Scanner must not overlap tree mutations, like Range.
type Scanner struct {
	t      *Tree
	c      *cache.Cache
	lo, hi uint64
	width  int

	frames []*pdm.Frame // the 2×width allocation, released on Close
	freeFr []*pdm.Frame

	path     []pathLevel // descent cursor, root first, leaf parents last
	pending  []int64     // forecast leaf addresses not yet dispatched
	forecast bool        // parent-level forecasting still alive
	fcDone   bool        // no leaf beyond those scheduled can hold a key <= hi

	cur, next *leafGroup
	slot      int    // current leaf within cur
	buf       []byte // current leaf image
	pos, cnt  int    // record cursor within the current leaf

	started bool
	done    bool
	closed  bool
	err     error
}

var _ stream.Source[record.Record] = (*Scanner)(nil)

// NewScanner opens a prefetched scan of [lo, hi] drawing its 2×Width leaf
// frames from pool. See Scanner for the fetch strategy; counted reads are
// at most the synchronous Range's over the same interval from the same
// cache state (identical for full scans with cold leaves).
func (t *Tree) NewScanner(pool *pdm.Pool, lo, hi uint64, opts *ScanOptions) (*Scanner, error) {
	return t.newScanner(t.cache, pool, lo, hi, opts)
}

// Scan is NewScanner at the index.Index signature: frames come from the
// pool the tree was created on and the scan runs at the tree's configured
// width.
func (t *Tree) Scan(lo, hi uint64) (index.Scanner, error) {
	var sc *Scanner
	err := t.gate.Do(func() (err error) {
		sc, err = t.newScanner(t.cache, t.pool, lo, hi, &ScanOptions{Width: t.width})
		return err
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

func (t *Tree) newScanner(c *cache.Cache, pool *pdm.Pool, lo, hi uint64, opts *ScanOptions) (*Scanner, error) {
	w := opts.width(t.vol.Disks())
	frames, err := pool.AllocN(2 * w)
	if err != nil {
		return nil, err
	}
	s := &Scanner{
		t: t, c: c, lo: lo, hi: hi, width: w,
		frames:   frames,
		freeFr:   append([]*pdm.Frame(nil), frames...),
		forecast: true,
	}
	if err := s.descend(); err != nil {
		s.Close()
		return nil, err
	}
	// Dispatch the first group now; the first Next books its successor
	// before waiting for it, and every group crossed after that books the
	// one behind it, so a group is always in flight behind the reader.
	s.cur = s.dispatchForecast()
	return s, nil
}

// descend walks from the root to lo's leaf parent through the cache — the
// same counted reads as Range's descent — recording the path as the
// forecast cursor and collecting the first batch of upcoming leaves.
func (s *Scanner) descend() error {
	t := s.t
	if t.height == 1 {
		// The root is the only leaf; nothing to forecast from.
		s.pending = []int64{t.root}
		s.forecast, s.fcDone = false, true
		return nil
	}
	addr := t.root
	for level := t.height; level > 1; level-- {
		p, err := s.c.Pin(addr, internal)
		if err != nil {
			return err
		}
		slot := searchChildSlot(p, s.lo)
		n := count(p)
		if level > 2 {
			s.path = append(s.path, pathLevel{addr: addr, slot: slot, cnt: n})
			addr = t.child(p, slot)
			s.c.Unpin(p)
			continue
		}
		// Leaf parent: schedule every child from lo's onward whose key
		// range can still intersect [lo, hi]. Child j's keys are all >=
		// separator j-1, so a separator beyond hi ends the scan's leaf set.
		s.path = append(s.path, pathLevel{addr: addr, slot: n, cnt: n})
		for j := slot; j <= n; j++ {
			if j > slot && intKey(p, j-1) > s.hi {
				s.fcDone = true
				break
			}
			s.pending = append(s.pending, t.child(p, j))
		}
		s.c.Unpin(p)
	}
	return nil
}

// refill extends pending with the next leaf parent's children, advancing
// the forecast cursor through cache-resident nodes only: a single
// non-resident ancestor ends forecasting for the rest of the scan (the
// sibling chain takes over) rather than costing a read Range would not
// have issued.
func (s *Scanner) refill() {
	if !s.forecast || s.fcDone {
		return
	}
	// Climb to the deepest ancestor with an unvisited child.
	j := len(s.path) - 2
	for ; j >= 0; j-- {
		if s.path[j].slot < s.path[j].cnt {
			break
		}
	}
	if j < 0 {
		s.fcDone = true
		return
	}
	p := s.c.Peek(s.path[j].addr, internal)
	if p == nil {
		s.forecast = false
		return
	}
	s.path[j].slot++
	slot := s.path[j].slot
	if slot > 0 && intKey(p, slot-1) > s.hi {
		s.c.Unpin(p)
		s.fcDone = true
		return
	}
	addr := s.t.child(p, slot)
	s.c.Unpin(p)
	// Walk the leftmost path of the new subtree down to its leaf parent.
	for k := j + 1; k < len(s.path); k++ {
		p := s.c.Peek(addr, internal)
		if p == nil {
			s.forecast = false
			return
		}
		n := count(p)
		if k < len(s.path)-1 {
			s.path[k] = pathLevel{addr: addr, slot: 0, cnt: n}
			addr = s.t.child(p, 0)
			s.c.Unpin(p)
			continue
		}
		s.path[k] = pathLevel{addr: addr, slot: n, cnt: n}
		for c := 0; c <= n; c++ {
			if c > 0 && intKey(p, c-1) > s.hi {
				s.fcDone = true
				break
			}
			s.pending = append(s.pending, s.t.child(p, c))
		}
		s.c.Unpin(p)
	}
}

// dispatchForecast cuts the next group from the forecast and sends its
// reads on their way; nil when no forecast leaves are available.
func (s *Scanner) dispatchForecast() *leafGroup {
	if len(s.pending) == 0 {
		s.refill()
	}
	if len(s.pending) == 0 {
		return nil
	}
	take := min(s.width, len(s.pending))
	g := &leafGroup{addrs: append([]int64(nil), s.pending[:take]...)}
	s.pending = s.pending[take:]
	s.dispatch(g)
	return g
}

// dispatch resolves a group's slots — resident leaves pin their cache page,
// the rest read into private frames as one async batch.
func (s *Scanner) dispatch(g *leafGroup) {
	g.pages = make([]*cache.Page, len(g.addrs))
	g.frames = make([]*pdm.Frame, len(g.addrs))
	var rAddrs []int64
	var rBufs [][]byte
	for i, a := range g.addrs {
		if p := s.c.Peek(a, !internal); p != nil {
			g.pages[i] = p
			continue
		}
		fr := s.takeFrame()
		g.frames[i] = fr
		rAddrs = append(rAddrs, a)
		rBufs = append(rBufs, fr.Buf)
	}
	g.due, g.err = s.t.vol.BatchReadAsync(rAddrs, rBufs)
}

func (s *Scanner) takeFrame() *pdm.Frame {
	n := len(s.freeFr)
	if n == 0 {
		panic("btree: scanner frame accounting corrupt")
	}
	fr := s.freeFr[n-1]
	s.freeFr = s.freeFr[:n-1]
	return fr
}

// waitGroup waits out a group's reads and reports their error.
func (s *Scanner) waitGroup(g *leafGroup) error {
	s.t.vol.Wait(g.due)
	return g.err
}

// retire returns a consumed group's resources.
func (s *Scanner) retire(g *leafGroup) {
	for i := range g.addrs {
		if g.pages[i] != nil {
			s.c.Unpin(g.pages[i])
			g.pages[i] = nil
		}
		if g.frames[i] != nil {
			s.freeFr = append(s.freeFr, g.frames[i])
			g.frames[i] = nil
		}
	}
}

func (s *Scanner) leafImage(g *leafGroup, i int) []byte {
	if g.pages[i] != nil {
		return g.pages[i].Buf
	}
	return g.frames[i].Buf
}

// followChain is the scanner's fallback once the forecast has nothing left
// to dispatch but leaves may remain: it sends one leaf ahead along the
// sibling chain, whose next address cur's tail leaf makes known — so it
// runs only after cur's reads have arrived. The chain is followed exactly
// when Range would follow it: the tail holds no key beyond hi (so Range,
// too, would read the successor).
func (s *Scanner) followChain() {
	if s.fcDone {
		// Every remaining leaf starts beyond hi; Range would read one more
		// block only to find its first key past the bound. Skipping it is
		// the one place the scanner reads strictly less than Range.
		return
	}
	tail := s.leafImage(s.cur, len(s.cur.addrs)-1)
	n := bufCount(tail)
	if n > 0 && bufLeafKey(tail, n-1) > s.hi {
		return
	}
	if nxt := bufNextLeaf(tail); nxt >= 0 {
		s.next = &leafGroup{addrs: []int64{nxt}}
		s.dispatch(s.next)
	}
}

// openLeaf positions the scanner on the next leaf, crossing group
// boundaries as needed. Crossing into a group books the forecast group
// after it before sleeping out its reads, into the frames the retired group
// just freed, so the disks never idle while the consumer wakes; only the
// sibling-chain fallback has to wait for the tail leaf's bytes.
func (s *Scanner) openLeaf() error {
	first := !s.started
	if first {
		s.started = true
	} else {
		s.slot++
	}
	if first || s.slot >= len(s.cur.addrs) {
		if !first {
			s.retire(s.cur)
			s.cur, s.next = s.next, nil
		}
		if s.cur == nil {
			s.done = true
			return nil
		}
		if s.cur.err == nil { // a failed group ends the scan: book nothing
			s.next = s.dispatchForecast()
		}
		if err := s.waitGroup(s.cur); err != nil {
			return err
		}
		s.slot = 0
		if s.next == nil {
			s.followChain()
		}
	}
	s.buf = s.leafImage(s.cur, s.slot)
	s.cnt = bufCount(s.buf)
	s.pos = 0
	if first {
		s.pos = bufSearchLeafSlot(s.buf, s.lo)
	}
	return nil
}

// Next returns the next record in key order; ok is false once every key in
// [lo, hi] has been returned.
func (s *Scanner) Next() (record.Record, bool, error) {
	var zero record.Record
	if s.closed {
		return zero, false, stream.ErrClosed
	}
	if s.err != nil {
		return zero, false, s.err
	}
	for !s.done {
		if s.buf == nil {
			if err := s.openLeaf(); err != nil {
				s.err = err
				return zero, false, err
			}
			continue
		}
		if s.pos >= s.cnt {
			s.buf = nil
			continue
		}
		k := bufLeafKey(s.buf, s.pos)
		if k > s.hi {
			s.done = true
			break
		}
		v := bufLeafVal(s.buf, s.pos)
		s.pos++
		return record.Record{Key: k, Val: v}, true, nil
	}
	return zero, false, nil
}

// NextBatch appends the rest of the current leaf's records in [lo, hi] to
// dst[:0] and returns it, opening the next leaf first when the current one
// is used up. It never crosses a leaf, so a batch holds at most one leaf's
// records — one block of bytes, decoded — and it grows dst at most once per
// call, to the leaf's record count, so a caller that hands the same buffer
// back allocates it once per scan. An empty batch with a nil error means
// the scan is done. Leaves open through the same path as Next's, so reads,
// forecasting and booking do not depend on which method drains the scan,
// and the two may interleave; an error, and stream.ErrClosed after Close,
// sticks on both.
func (s *Scanner) NextBatch(dst []record.Record) ([]record.Record, error) {
	dst = dst[:0]
	if s.closed {
		return dst, stream.ErrClosed
	}
	if s.err != nil {
		return dst, s.err
	}
	for !s.done {
		if s.buf == nil {
			if err := s.openLeaf(); err != nil {
				s.err = err
				return dst, err
			}
			continue
		}
		if s.pos >= s.cnt {
			s.buf = nil
			continue
		}
		end := s.cnt
		if bufLeafKey(s.buf, end-1) > s.hi {
			// The scan ends in this leaf; hi is below a key, so hi+1
			// does not wrap, and a range with lo > hi ends at its start.
			end = max(s.pos, bufSearchLeafSlot(s.buf, s.hi+1))
			s.done = true
		}
		dst = slices.Grow(dst, s.cnt)
		// The records in bufLeafKey's and bufLeafVal's layout, walked
		// without a bound check per record.
		for d := s.buf[offData+16*s.pos : offData+16*end]; len(d) >= 16; d = d[16:] {
			dst = append(dst, record.Record{Key: binary.LittleEndian.Uint64(d), Val: binary.LittleEndian.Uint64(d[8:])})
		}
		s.pos = end
		return dst, nil
	}
	return dst, nil
}

// Close releases every frame and pin. In-flight reads need no wait: their
// bytes moved at dispatch, and their reservations stay booked on the
// disks' timelines. It is idempotent and safe after errors.
func (s *Scanner) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, g := range []*leafGroup{s.cur, s.next} {
		if g != nil {
			s.retire(g)
		}
	}
	s.cur, s.next = nil, nil
	s.buf = nil
	if s.frames != nil {
		pdm.ReleaseAll(s.frames)
		s.frames, s.freeFr = nil, nil
	}
}

// RangePrefetch is Range with the Scanner underneath: fn observes the same
// records in the same order as Range(lo, hi, fn), with leaf reads batched
// and kept in flight according to opts. It needs 2×Width frames from pool
// for the scan's lifetime.
func (t *Tree) RangePrefetch(pool *pdm.Pool, lo, hi uint64, opts *ScanOptions, fn func(k, v uint64) error) error {
	s, err := t.NewScanner(pool, lo, hi, opts)
	if err != nil {
		return err
	}
	defer s.Close()
	return stream.Drain[record.Record](s, func(r record.Record) error { return fn(r.Key, r.Val) })
}
