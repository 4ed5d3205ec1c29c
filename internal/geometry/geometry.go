// Package geometry implements the distribution-sweep paradigm on the
// survey's flagship batched geometric problem: orthogonal segment
// intersection. Given N axis-parallel segments, report every
// horizontal/vertical crossing pair in O(Sort(N) + Z/B) I/Os, where Z is
// the output size — versus the Θ(N²/B) blockwise all-pairs baseline
// (experiment T8).
//
// The sweep divides the x-range into Θ(m) slabs, sweeps the y-sorted event
// stream downward once per recursion level, keeps one active list of
// vertical segments per slab, and reports a horizontal segment against every
// slab it completely spans; the partial end pieces recurse inside their end
// slabs. Each vertical segment is written once per level and each scan
// element either produces output or is expired, which is what gives the
// output-sensitive bound.
package geometry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"em/internal/extsort"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// ErrBadSegment reports a degenerate segment.
var ErrBadSegment = errors.New("geometry: malformed segment")

// Segment is an axis-parallel segment with an integer identity. Horizontal
// segments run (X1,Y)-(X2,Y) with X1 <= X2; vertical segments run
// (X1,Y)-(X1,Y2) with Y <= Y2 and X2 unused.
type Segment struct {
	ID       int64
	Vertical bool
	X1, X2   float64 // for vertical segments X2 == X1
	Y, Y2    float64 // horizontal: Y only; vertical: low Y and high Y2
}

// SegmentCodec encodes Segment in 41 bytes.
type SegmentCodec struct{}

// Size implements record.Codec.
func (SegmentCodec) Size() int { return 41 }

// Encode implements record.Codec.
func (SegmentCodec) Encode(b []byte, s Segment) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(s.ID))
	if s.Vertical {
		b[8] = 1
	} else {
		b[8] = 0
	}
	binary.LittleEndian.PutUint64(b[9:17], math.Float64bits(s.X1))
	binary.LittleEndian.PutUint64(b[17:25], math.Float64bits(s.X2))
	binary.LittleEndian.PutUint64(b[25:33], math.Float64bits(s.Y))
	binary.LittleEndian.PutUint64(b[33:41], math.Float64bits(s.Y2))
}

// Decode implements record.Codec.
func (SegmentCodec) Decode(b []byte) Segment {
	return Segment{
		ID:       int64(binary.LittleEndian.Uint64(b[0:8])),
		Vertical: b[8] == 1,
		X1:       math.Float64frombits(binary.LittleEndian.Uint64(b[9:17])),
		X2:       math.Float64frombits(binary.LittleEndian.Uint64(b[17:25])),
		Y:        math.Float64frombits(binary.LittleEndian.Uint64(b[25:33])),
		Y2:       math.Float64frombits(binary.LittleEndian.Uint64(b[33:41])),
	}
}

// Horizontal constructs a horizontal segment.
func Horizontal(id int64, x1, x2, y float64) Segment {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	return Segment{ID: id, X1: x1, X2: x2, Y: y}
}

// Vertical constructs a vertical segment.
func Vertical(id int64, x, y1, y2 float64) Segment {
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Segment{ID: id, Vertical: true, X1: x, X2: x, Y: y1, Y2: y2}
}

// crosses reports whether horizontal h and vertical v intersect (closed
// segments).
func crosses(h, v Segment) bool {
	return v.X1 >= h.X1 && v.X1 <= h.X2 && h.Y >= v.Y && h.Y <= v.Y2
}

// Validate checks a segment's invariants.
func (s Segment) Validate() error {
	if s.Vertical {
		if s.Y > s.Y2 {
			return fmt.Errorf("%w: vertical with Y %g > Y2 %g", ErrBadSegment, s.Y, s.Y2)
		}
		return nil
	}
	if s.X1 > s.X2 {
		return fmt.Errorf("%w: horizontal with X1 %g > X2 %g", ErrBadSegment, s.X1, s.X2)
	}
	return nil
}

// NaiveIntersections is the blockwise all-pairs baseline: every horizontal
// is tested against every vertical, Θ((N_h·N_v)/B²·B) = Θ(N²/B) I/Os once
// neither side fits in memory. Pairs are emitted as (horizontalID,
// verticalID).
func NaiveIntersections(segs *stream.File[Segment], pool *pdm.Pool) (*stream.File[record.Pair], error) {
	vol := segs.Vol()
	hs := stream.NewFile[Segment](vol, SegmentCodec{})
	vs := stream.NewFile[Segment](vol, SegmentCodec{})
	hw, err := stream.NewWriter(hs, pool)
	if err != nil {
		return nil, err
	}
	vw, err := stream.NewWriter(vs, pool)
	if err != nil {
		hw.Close()
		return nil, err
	}
	if err := stream.ForEach(segs, pool, func(s Segment) error {
		if s.Vertical {
			return vw.Append(s)
		}
		return hw.Append(s)
	}); err != nil {
		hw.Close()
		vw.Close()
		return nil, err
	}
	if err := hw.Close(); err != nil {
		vw.Close()
		return nil, err
	}
	if err := vw.Close(); err != nil {
		return nil, err
	}

	out := stream.NewFile[record.Pair](vol, record.PairCodec{})
	ow, err := stream.NewWriter(out, pool)
	if err != nil {
		return nil, err
	}
	// For each horizontal, rescan all verticals: the quadratic baseline.
	err = stream.ForEach(hs, pool, func(h Segment) error {
		return stream.ForEach(vs, pool, func(v Segment) error {
			if crosses(h, v) {
				return ow.Append(record.Pair{A: h.ID, B: v.ID})
			}
			return nil
		})
	})
	if err != nil {
		ow.Close()
		return nil, err
	}
	hs.Release()
	vs.Release()
	return out, ow.Close()
}

// Intersections runs the distribution sweep, emitting every crossing
// (horizontalID, verticalID) pair in O(Sort(N) + Z/B) I/Os.
func Intersections(segs *stream.File[Segment], pool *pdm.Pool) (*stream.File[record.Pair], error) {
	vol := segs.Vol()
	out := stream.NewFile[record.Pair](vol, record.PairCodec{})
	ow, err := stream.NewWriter(out, pool)
	if err != nil {
		return nil, err
	}
	// Events sorted by descending y. A vertical segment's event is its top
	// endpoint (Y2); a horizontal's event is its y. Verticals sort before
	// horizontals at equal y so a vertical is active when a collinear
	// horizontal arrives (closed-segment semantics).
	sorted, err := extsort.MergeSort(segs, pool, eventLess, nil)
	if err != nil {
		ow.Close()
		return nil, err
	}
	ds := &sweeper{vol: vol, pool: pool, out: ow, rng: rand.New(rand.NewSource(0x5EED))}
	if err := ds.sweep(sorted, math.Inf(-1), math.Inf(1)); err != nil {
		ow.Close()
		return nil, err
	}
	sorted.Release()
	if err := ow.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// eventLess orders segments by descending event y, verticals first on ties.
func eventLess(a, b Segment) bool {
	ay, by := eventY(a), eventY(b)
	if ay != by {
		return ay > by
	}
	if a.Vertical != b.Vertical {
		return a.Vertical
	}
	return a.ID < b.ID
}

func eventY(s Segment) float64 {
	if s.Vertical {
		return s.Y2
	}
	return s.Y
}

type sweeper struct {
	vol  *pdm.Volume
	pool *pdm.Pool
	out  *stream.Writer[record.Pair]
	rng  *rand.Rand // seeded: slab boundaries, hence counted I/Os, repeat
}

// memRecords is the base-case threshold in segments.
func (d *sweeper) memRecords() int {
	per := d.vol.BlockBytes() / (SegmentCodec{}).Size()
	if per < 1 {
		per = 1
	}
	n := (d.pool.Free() - 4) * per
	if n < 4 {
		n = 4
	}
	return n
}

// fanOut is the slab count per level: each slab needs an active-list writer
// frame plus one recursion file writer frame when repartitioning, but those
// phases are sequential, so the budget is shared.
func (d *sweeper) fanOut() int {
	f := (d.pool.Free() - 4) / 2
	if f < 2 {
		f = 2
	}
	return f
}

// sweep processes the y-sorted event file evs restricted to x-range
// [xlo, xhi). It consumes (releases) evs.
func (d *sweeper) sweep(evs *stream.File[Segment], xlo, xhi float64) error {
	if evs.Len() <= int64(d.memRecords()) {
		return d.baseCase(evs)
	}
	// Choose slab boundaries from the x-coordinates of the verticals (and
	// horizontal endpoints) by sampling.
	bounds, err := d.slabBounds(evs, xlo, xhi)
	if err != nil {
		return err
	}
	nSlabs := len(bounds) + 1
	if nSlabs < 2 {
		// No usable splitters (all x equal): fall back to the in-memory
		// sweep in chunks — degenerate inputs have all verticals at one x,
		// so a y-ordered scan with one active list suffices.
		return d.baseCase(evs)
	}
	// Slab i covers the half-open x-range [boundary(i-1), boundary(i)).
	slabOf := func(x float64) int {
		return sort.Search(len(bounds), func(i int) bool { return x < bounds[i] })
	}

	// Per-slab active list of verticals and per-slab recursion event file.
	// Both writer sets stay open for the whole pass — 2·nSlabs frames, which
	// is what caps fanOut at half the free budget.
	active := make([]*stream.File[Segment], nSlabs)
	recurse := make([]*stream.File[Segment], nSlabs)
	aw := make([]*stream.Writer[Segment], nSlabs)
	rw := make([]*stream.Writer[Segment], nSlabs)
	closeAll := func() {
		for _, w := range aw {
			if w != nil {
				w.Close()
			}
		}
		for _, w := range rw {
			if w != nil {
				w.Close()
			}
		}
	}
	for i := 0; i < nSlabs; i++ {
		active[i] = stream.NewFile[Segment](d.vol, SegmentCodec{})
		recurse[i] = stream.NewFile[Segment](d.vol, SegmentCodec{})
		w, err := stream.NewWriter(active[i], d.pool)
		if err != nil {
			closeAll()
			return err
		}
		aw[i] = w
		w, err = stream.NewWriter(recurse[i], d.pool)
		if err != nil {
			closeAll()
			return err
		}
		rw[i] = w
	}

	err = stream.ForEach(evs, d.pool, func(s Segment) error {
		if s.Vertical {
			slab := slabOf(s.X1)
			if err := aw[slab].Append(s); err != nil {
				return err
			}
			return rw[slab].Append(s)
		}
		// Horizontal: slabs fully spanned are reported here; end slabs
		// recurse.
		lo, hi := slabOf(s.X1), slabOf(s.X2)
		for slab := lo; slab <= hi; slab++ {
			slabLo := xlo
			if slab > 0 {
				slabLo = bounds[slab-1]
			}
			slabHi := xhi
			if slab < len(bounds) {
				slabHi = bounds[slab]
			}
			full := s.X1 <= slabLo && s.X2 >= slabHi
			if full {
				// Flush the slab's active writer so the report scan sees
				// every buffered vertical, then reopen it on the rewritten
				// list. O(1) extra I/Os charged to this horizontal.
				if err := aw[slab].Close(); err != nil {
					return err
				}
				aw[slab] = nil
				if err := d.reportSlab(active[slab], s); err != nil {
					return err
				}
				w, err := stream.NewWriter(active[slab], d.pool)
				if err != nil {
					return err
				}
				aw[slab] = w
			} else if err := rw[slab].Append(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		closeAll()
		return err
	}
	for i := 0; i < nSlabs; i++ {
		if err := aw[i].Close(); err != nil {
			return err
		}
		aw[i] = nil
		if err := rw[i].Close(); err != nil {
			return err
		}
		rw[i] = nil
	}
	for i := 0; i < nSlabs; i++ {
		active[i].Release()
		slabLo := xlo
		if i > 0 {
			slabLo = bounds[i-1]
		}
		slabHi := xhi
		if i < len(bounds) {
			slabHi = bounds[i]
		}
		// Guard against non-shrinking recursion (degenerate splits).
		if recurse[i].Len() >= evs.Len() {
			if err := d.baseCase(recurse[i]); err != nil {
				return err
			}
			continue
		}
		if err := d.sweep(recurse[i], slabLo, slabHi); err != nil {
			return err
		}
	}
	evs.Release()
	return nil
}

// reportSlab scans a slab's active list, reporting verticals that still
// span the horizontal's y and lazily expiring dead ones by rewriting the
// list. Each scanned element either reports an intersection or is expired,
// giving the amortised O(Z/B) bound.
func (d *sweeper) reportSlab(act *stream.File[Segment], h Segment) error {
	if act.Len() == 0 {
		return nil
	}
	kept := stream.NewFile[Segment](d.vol, SegmentCodec{})
	kw, err := stream.NewWriter(kept, d.pool)
	if err != nil {
		return err
	}
	err = stream.ForEach(act, d.pool, func(v Segment) error {
		if v.Y > h.Y { // vertical ended above the sweep line: expire
			return nil
		}
		if err := d.out.Append(record.Pair{A: h.ID, B: v.ID}); err != nil {
			return err
		}
		return kw.Append(v)
	})
	if err != nil {
		kw.Close()
		return err
	}
	if err := kw.Close(); err != nil {
		return err
	}
	act.Release()
	*act = *kept
	return nil
}

// slabBounds samples x-coordinates — the left ends of the events in four
// random blocks of evs per slab, or as many as the pool has free, as the
// distribution sort samples its splitters — and returns up to fanOut-1
// distinct interior boundaries within (xlo, xhi).
func (d *sweeper) slabBounds(evs *stream.File[Segment], xlo, xhi float64) ([]float64, error) {
	target := d.fanOut() - 1
	sample, err := stream.SampleBlocks(evs, d.pool, 4*(target+1), d.rng)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(sample))
	for i, s := range sample {
		xs[i] = s.X1
	}
	sort.Float64s(xs)
	var bounds []float64
	for i := 1; i <= target; i++ {
		b := xs[i*len(xs)/(target+1)]
		if b <= xlo || b >= xhi {
			continue
		}
		if len(bounds) == 0 || b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	return bounds, nil
}

// baseCase solves a memory-sized instance with an in-memory sweep.
func (d *sweeper) baseCase(evs *stream.File[Segment]) error {
	segs, err := stream.ToSlice(evs, d.pool)
	if err != nil {
		return err
	}
	evs.Release()
	sort.Slice(segs, func(i, j int) bool { return eventLess(segs[i], segs[j]) })
	// Active verticals ordered by x (slice scan; instance is memory-sized).
	var active []Segment
	for _, s := range segs {
		if s.Vertical {
			active = append(active, s)
			continue
		}
		keep := active[:0]
		for _, v := range active {
			if v.Y > s.Y {
				continue // expired
			}
			keep = append(keep, v)
			if crosses(s, v) {
				if err := d.out.Append(record.Pair{A: s.ID, B: v.ID}); err != nil {
					return err
				}
			}
		}
		active = keep
	}
	return nil
}
