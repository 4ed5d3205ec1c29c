package store

import (
	"errors"
	"slices"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// errYoungDir reports a young tree that does not hold exactly the live keys
// of its directory: a broken invariant, never an I/O condition.
var errYoungDir = errors.New("store: young tree disagrees with its key directory")

// keyDir is the young generation's exact key directory: every key a front
// merged into the young tree since the last full merge, in key order, with
// one delete bit each. A live key's record is in the young tree; a dead
// key's newest operation is a delete, which hides whatever the old tree
// holds for it. The young tree holds exactly the live keys, so a probe
// that misses the directory goes to the old tree and one that hits a dead
// key answers from memory: neither reads the young tree. A range is read
// as youngOps: the directory's keys in range, each live one's value from a
// scan of the young tree, which a range with no live key never opens. The
// directory is immutable once built; each young drain builds the next one.
//
// Most probes miss — every get of a key no recent front touched — so a
// filter of its keys (the fronts' design) answers them before the
// directory is searched.
type keyDir struct {
	keys   []uint64
	dead   []uint64 // bit i set: keys[i]'s newest operation is a delete
	filter filter   // every key
}

// find returns the position of the first key at least key, and whether it
// is key.
func (d *keyDir) find(key uint64) (int, bool) { return slices.BinarySearch(d.keys, key) }

func (d *keyDir) isDead(i int) bool { return d.dead[i>>6]>>(i&63)&1 == 1 }

// merge returns the directory of d's keys and the sealed front's, the
// front's operations being the newer; d may be nil.
func (d *keyDir) merge(front *overlay) *keyDir {
	var old keyDir
	if d != nil {
		old = *d
	}
	n := len(old.keys)
	for _, ch := range front.chunks {
		n += len(ch)
	}
	out := &keyDir{keys: make([]uint64, 0, n), dead: make([]uint64, (n+63)/64)}
	add := func(key uint64, dead bool) {
		i := len(out.keys)
		out.keys = append(out.keys, key)
		if dead {
			out.dead[i>>6] |= 1 << (i & 63)
		}
	}
	i := 0
	for _, ch := range front.chunks {
		for _, op := range ch {
			for ; i < len(old.keys) && old.keys[i] < op.Key; i++ {
				add(old.keys[i], old.isDead(i))
			}
			if i < len(old.keys) && old.keys[i] == op.Key {
				i++
			}
			add(op.Key, op.Deleted())
		}
	}
	for ; i < len(old.keys); i++ {
		add(old.keys[i], old.isDead(i))
	}
	out.filter = newFilter(len(out.keys))
	for _, k := range out.keys {
		out.filter.add(k)
	}
	return out
}

// youngOps streams the young generation's operations on the keys of a
// range as resolved operations: the directory's keys in range, keys[i:j],
// in key order, a dead key as a tombstone and a live one with its value
// from recs, a scan of the young tree over the live keys in range. Every
// Seq is older than any front operation's, so a front patched over it
// wins.
type youngOps struct {
	dir  *keyDir
	i, j int
	recs stream.Source[record.Record]
}

// openYoung opens young's operations on the keys in [lo, hi]. The young
// tree holds exactly the directory's live keys, so its scan, a session of
// its own on pool at width, spans only the first to the last live key in
// range, and a range that holds none opens no session and reads no block.
func (s *Store) openYoung(young *generation, pool *pdm.Pool, width int, lo, hi uint64) (*youngOps, error) {
	d := young.dir
	i, _ := d.find(lo)
	j, in := d.find(hi)
	if in {
		j++
	}
	first, last := i, j-1
	for first < j && d.isDead(first) {
		first++
	}
	for last > first && d.isDead(last) {
		last--
	}
	y := &youngOps{dir: d, i: i, j: j, recs: noRecords{}}
	if first < j {
		sc, err := s.openScan(young, pool, width, d.keys[first], d.keys[last])
		if err != nil {
			return nil, err
		}
		y.recs = sc
	}
	return y, nil
}

func (y *youngOps) Next() (Op, bool, error) {
	d := y.dir
	if y.i >= y.j {
		return Op{}, false, nil
	}
	i := y.i
	y.i++
	if d.isDead(i) {
		return Op{Key: d.keys[i], Seq: 1}, true, nil
	}
	r, ok, err := y.recs.Next()
	if err != nil {
		return Op{}, false, err
	}
	if !ok || r.Key != d.keys[i] {
		return Op{}, false, errYoungDir
	}
	return Op{Key: r.Key, Val: r.Val}, true, nil
}

func (y *youngOps) Close() { y.recs.Close() }

// noRecords is the empty base a young drain patches its front over when
// there is no young generation yet.
type noRecords struct{}

func (noRecords) Next() (record.Record, bool, error) { return record.Record{}, false, nil }
func (noRecords) Close()                             {}
