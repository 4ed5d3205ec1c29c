// Package store composes the module's write-optimal and read-optimal
// halves into an online updatable key-value index — the LSM shape the
// survey's buffer-tree section points at, in the regime where the pending
// updates fit in memory. Inserts and deletes are sequenced into an
// in-memory write front at no I/O: an overlay holding the newest
// operation per key in key order (sorted chunks under a directory of
// first keys), bounded by the seal threshold. When the front crosses that
// threshold it is sealed and drained in the background: its resolved,
// tombstone-carrying operations merge with a scan of a B-tree generation
// (stream.Patch) through the write-behind bulk loader into a fresh
// generation, and readers swap over atomically.
//
// The B-tree half follows the survey's logarithmic method: the view holds
// an old generation and at most one young one, a B-tree of the live
// records the recent fronts wrote plus an exact in-memory directory of
// every key they touched, with a delete bit each. A threshold drain
// rewrites only the young tree (front ⊕ young), until young has absorbed
// k−1 fronts; the k-th merges everything into the old tree. k is
// ⌊√(2·n/F)⌋ for an old tree of n records and fronts of F operations, the
// k that minimises a front's share of the rewrites, kF/2 + n/k, against
// Θ(n/B) I/Os per front for rebuilding the old tree on every drain; k ≤ 1
// makes every drain a full merge. An explicit Drain or StartDrain always
// compacts old ⊕ young ⊕ front into one generation.
//
// Reads stay consistent throughout: Get, GetBatch, and Scan consult the
// unsealed front, the sealed front awaiting handover, the young
// directory, and the generations, newest layer first — each key's newest
// operation wins, so a drain is observationally a no-op. A probe of the
// in-memory layers costs no I/O and O(log F) comparisons, and each layer
// keeps a Bloom filter of its keys, so a probe of a key it does not hold
// almost always costs one word; a key the young directory does not hold
// costs exactly the old tree's reads; a range collection costs
// O(log F + k) for its k buffered operations whatever the front's size F,
// and read throughput holds through a drain.
//
// Buffered operations are not durable: they exist only in memory until a
// drain writes them into a generation, and Open always starts empty.
//
// Generations are reference-counted: in-flight Scanners and Sessions keep
// their generation alive until they close, and a superseded generation's
// blocks are reclaimed (btree.Tree.Release) when its last reader departs.
package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"em/internal/btree"
	"em/internal/index"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Config tunes the store.
type Config struct {
	// FrontOps seals the write front after this many accepted operations,
	// repeated keys included. Zero means 8192. The front lives only in
	// memory — an overlay whose chunks run between half and completely
	// full, so at most 48 bytes per buffered operation, and a filter of 12
	// bits per key of room for FrontOps and an eighth more keys (≈ 1.7
	// bytes per buffered operation at the threshold; fixed in size, so a
	// front that outgrows it only filters worse) — so FrontOps
	// bounds the memory the store holds beyond its pool (two fronts' worth
	// while a drain is in flight, plus the young generation's key
	// directory: at most (k−1)·FrontOps keys, for the k of the package
	// comment, of 8 bytes, a delete bit and 12 filter bits each) and the
	// operations no block on the volume holds yet.
	FrontOps int64
	// CacheFrames sizes each generation's buffer manager, the drain's
	// loader cache, and a Session's cache unless NewSession picks one.
	// Zero means 8; minimum 3. Beyond the drain reservation (see Open) the
	// pool must hold three generation caches: the old one's, the young
	// one's, and the one a handover warms before it swaps in. Scan
	// sessions, the drain's and Scan's, take scanFrames whatever it is: a
	// Scan takes 3 + 2·Width frames, twice that when the young generation
	// holds a live key in its range.
	CacheFrames int
	// Width is the striping width of reader scans and batched lookups;
	// zero picks the volume's disk count. The background drain's streams
	// (the generation scan and the loader) stripe half as wide, minimum 1:
	// a handover that kept Width reads in flight would queue foreground
	// lookups behind the rebuild on every disk, and serving during the
	// drain is the point.
	Width int
	// AdmitQueue and AdmitWait enable admission control on the serving
	// entry points (GetBatch, Scan, NewSession): a request that finds the
	// pool starved joins a bounded FIFO of at most AdmitQueue waiters and
	// retries as frames free up, for at most AdmitWait, before shedding
	// with an index.OverloadError (which wraps pdm.ErrNoFrames). Both
	// zero — the default — leaves admission off; setting one picks the
	// package default for the other.
	AdmitQueue int
	AdmitWait  time.Duration
}

// drainWidth is the stripe width of the background drain: half of Width,
// minimum 1.
func (c *Config) drainWidth() int { return max(1, c.Width/2) }

// generation is one immutable B-tree the store serves reads from: the old
// generation, or the young one, which alone has a key directory. Point
// reads through the tree's own buffer manager, and the opening of a
// session (which flushes it), are serialized by mu (the cache is not
// thread-safe); Sessions read the old tree, and scans every tree, through
// btree sessions with private caches, so no scan takes mu past its
// session's open. A reader never holds two generations' locks at once.
// refs counts the store's view plus every in-flight Scanner, Session,
// read, and drain; the tree's blocks are reclaimed when it hits zero.
//
// mu is a one-slot channel, not a sync.Mutex: a send locks and a receive
// unlocks. Its holder sleeps out disk latency, and a goroutine blocked on a
// channel is durably blocked where one blocked on a mutex is not, so a
// testing/synctest bubble can advance its clock past a reader queued here.
type generation struct {
	tree *btree.Tree
	dir  *keyDir // the young generation's directory; nil on the old one
	mu   chan struct{}
	refs atomic.Int64
}

func newGeneration(tree *btree.Tree, dir *keyDir) *generation {
	g := &generation{tree: tree, dir: dir, mu: make(chan struct{}, 1)}
	g.refs.Store(1)
	return g
}

// Store is an online read-write key-value store. All methods are safe for
// concurrent use; the background drain runs beside foreground reads and
// writes.
type Store struct {
	vol  *pdm.Volume
	pool *pdm.Pool
	cfg  Config
	gate *index.Gate // admission over the serving entry points; nil = off

	sealOps int64 // effective front threshold in ops

	// The drain's construction budget, carved from pool once at Open (the
	// extsort.SortIndex pattern): the background rebuild draws only those
	// frames — its sessions carve theirs from it in turn — so foreground
	// readers never lose frames to it and a too-small pool fails at Open,
	// not mid-drain.
	drainPool *pdm.Pool

	// mu guards the layered read view below. Readers hold RLock across
	// their in-memory probes; writes and all view swaps (seal, generation
	// handover) happen under Lock, so a reader always sees one consistent
	// layering. frontMem and sealedMem are the two fronts — newest op per
	// key, in key order — so overlay probes and range collections cost no
	// I/O and a range costs only its own length. sealedMem is non-nil
	// exactly while a sealed front awaits handover, and nothing writes it.
	mu          sync.RWMutex
	seq         uint64 // last sequence number issued; continues across seals
	frontOps    int64  // operations accepted into frontMem, repeated keys included
	frontMem    *overlay
	sealedMem   *overlay
	gen         *generation // the old B-tree generation
	young       *generation // the young generation; nil when the view holds one
	youngFronts int64       // fronts merged into young since the last full merge
	draining    bool
	drainDone   chan struct{} // closed when the in-flight drain finishes
	drainErr    error         // sticky: writes fail after a failed drain
	drains      int64
	closed      bool

	wg sync.WaitGroup // in-flight drain goroutines

	errMu sync.Mutex
	bgErr error // background release errors, surfaced by Close
}

// scanFrames is the cache of every scan session the store opens: the
// drain's over the old and the young generation, and Scan's. A scanner
// reads leaves into frames of its own and pins one node of its descent at
// a time, and a fresh session's cache holds nothing else, so a larger one
// buys it no hit.
const scanFrames = 3

// Open creates an empty store on vol whose steady-state frames are drawn
// from pool. The drain budget is carved from pool immediately (a
// pdm.Pool.Carve: the drain works in those frames and makes none) and held
// until Close. It is the most a drain opens at once, at the drain width w:
// a full merge's two scan sessions, over the old generation and the young
// one (btree.SessionFrames at scanFrames each), and one bulk loader for
// the next generation (btree.LoaderFrames at CacheFrames) — CacheFrames +
// 6·w + 6 frames. A young drain opens only the young scan and the loader.
// Beyond the carve the pool must hold 3·CacheFrames for the
// generation caches (old, young and the one a handover warms before it
// swaps in; a handover that finds them short fails the drain with
// pdm.ErrNoFrames, and the store then refuses writes), plus per-reader
// frames — a Session's budget, 3 + 2·Width per open Scanner and twice
// that for one whose range holds a live young key — so size it with
// headroom.
func Open(vol *pdm.Volume, pool *pdm.Pool, cfg Config) (*Store, error) {
	if cfg.CacheFrames == 0 {
		cfg.CacheFrames = 8
	}
	if cfg.CacheFrames < 3 {
		cfg.CacheFrames = 3
	}
	if cfg.Width < 1 {
		cfg.Width = vol.Disks()
	}
	sealOps := cfg.FrontOps
	if sealOps <= 0 {
		sealOps = 8192
	}
	w := cfg.drainWidth()
	drainFrames := 2*btree.SessionFrames(scanFrames, w) + btree.LoaderFrames(cfg.CacheFrames, w)
	drainPool, err := pool.Carve(drainFrames)
	if err != nil {
		return nil, err
	}
	s := &Store{
		vol:       vol,
		pool:      pool,
		cfg:       cfg,
		gate:      index.NewGate(pool, cfg.AdmitQueue, cfg.AdmitWait),
		sealOps:   sealOps,
		drainPool: drainPool,
	}
	tree, err := btree.New(vol, pool, &btree.Options{CacheFrames: cfg.CacheFrames})
	if err != nil {
		drainPool.Close()
		return nil, err
	}
	s.gen = newGeneration(tree, nil)
	s.frontMem = s.newFront()
	return s, nil
}

// maxFrontRoom caps the seal threshold frontRoom sizes a front's filter
// for, so a store whose fronts seal late allocates under 2 MiB of filter
// per front, and its fronts' filters pass more absent keys once they
// outgrow that.
const maxFrontRoom = 1 << 20

// frontRoom is the filter room of a front sealed at sealOps operations: the
// threshold's keys and an eighth more. A front never holds more keys than
// it has taken operations, so one sealed at the threshold fits its room,
// as does one that takes a few more while a drain runs.
func frontRoom(sealOps int64) int {
	room := min(sealOps, maxFrontRoom)
	return int(room + room/8)
}

// newFront returns an empty write front.
func (s *Store) newFront() *overlay { return newOverlay(frontRoom(s.sealOps)) }

// Insert buffers an insertion of (key, val); later operations on the same
// key win. Crossing the front threshold triggers a background drain.
func (s *Store) Insert(key, val uint64) error {
	return s.update(key, val, false)
}

// Delete buffers a deletion of key; deleting an absent key is a no-op.
func (s *Store) Delete(key uint64) error {
	return s.update(key, 0, true)
}

func (s *Store) update(key, val uint64, del bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.drainErr != nil {
		return s.drainErr
	}
	s.seq++
	op := Op{Key: key, Val: val, Seq: s.seq << 1}
	if del {
		op.Seq |= 1
	}
	s.frontMem.put(op)
	s.frontOps++
	s.maybeSealLocked()
	return nil
}

func (s *Store) overLocked() bool {
	return s.frontOps >= s.sealOps
}

func (s *Store) maybeSealLocked() {
	if s.draining || s.sealedMem != nil || !s.overLocked() {
		return
	}
	s.sealLocked(false)
}

// youngDrainLocked reports whether a threshold drain merges the front into
// the young generation alone: while young has absorbed fewer than k−1
// fronts, k = ⌊√(2·n/F)⌋ for the old tree's n records and the seal
// threshold F. j < k−1 is (j+2)² ≤ 2n/F, which integer division decides
// exactly.
func (s *Store) youngDrainLocked() bool {
	j := s.youngFronts
	return (j+2)*(j+2) <= 2*s.gen.tree.Len()/s.sealOps
}

// sealLocked seals the current front, swaps in an empty one, and starts
// the background drain: a full merge of old ⊕ young ⊕ front when compact
// is set or the young generation is due, else a young drain. Caller holds
// mu exclusively.
func (s *Store) sealLocked(compact bool) {
	sealed := s.frontMem
	s.sealedMem, s.frontMem, s.frontOps = sealed, s.newFront(), 0
	s.draining = true
	done := make(chan struct{})
	s.drainDone = done
	full := compact || !s.youngDrainLocked()
	gen, young := s.gen, s.young
	if full {
		gen.refs.Add(1)
	} else {
		gen = nil
	}
	if young != nil {
		young.refs.Add(1)
	}
	s.wg.Add(1)
	go s.drain(sealed, gen, young, done)
}

// drain runs one background drain to completion, then retriggers if the
// new front already crossed the threshold while the drain ran. gen is the
// old generation on a full merge and nil on a young drain; young is the
// young generation, if there is one. The drain holds a reference on each
// and drops it before it retriggers, so a generation the handover retired
// gives its cache frames back before the next drain installs a tree.
func (s *Store) drain(sealed *overlay, gen, young *generation, done chan struct{}) {
	defer s.wg.Done()
	err := s.drainOnce(sealed, gen, young)
	s.releaseGens(gen, young)
	s.mu.Lock()
	s.draining = false
	if err != nil && s.drainErr == nil {
		s.drainErr = err
	}
	if err == nil && s.drainErr == nil && !s.closed && s.overLocked() {
		s.sealLocked(false)
	}
	s.mu.Unlock()
	close(done)
}

// drainOnce is one front handover, built on the private drain budget. A
// full merge (gen non-nil) rebuilds the old generation from old ⊕ young ⊕
// sealed front and retires young; a young drain rebuilds the young
// generation from young ⊕ sealed front, with the next directory. Readers
// swap over in one step, which also retires the sealed front.
func (s *Store) drainOnce(sealed *overlay, gen, young *generation) error {
	full := gen != nil
	base, merged := young, (*generation)(nil)
	if full {
		base, merged = gen, young
	}
	tree, err := s.buildGen(sealed, base, merged)
	if err != nil {
		// Reads remain correct (frontMem ⊕ sealedMem ⊕ young ⊕ old) even
		// though the store no longer accepts writes.
		return err
	}
	var dir *keyDir
	if !full {
		if young != nil {
			dir = young.dir
		}
		dir = dir.merge(sealed)
	}
	next := newGeneration(tree, dir)
	s.mu.Lock()
	retired := []*generation{s.young}
	if full {
		retired = append(retired, s.gen)
		s.gen, s.young, s.youngFronts = next, nil, 0
	} else {
		s.young = next
		s.youngFronts++
	}
	s.sealedMem = nil
	s.drains++
	s.mu.Unlock()
	s.releaseGens(retired...)
	return nil
}

// session opens a read session over g's tree on pool, under g's lock:
// opening one flushes the tree's own cache.
func (g *generation) session(pool *pdm.Pool, cacheFrames, width int) (*btree.Session, error) {
	g.mu <- struct{}{}
	defer func() { <-g.mu }()
	return g.tree.NewSessionOn(pool, cacheFrames, width)
}

// treeScan is a scan of one generation's tree through a read session of
// its own, which closing the scan closes too.
type treeScan struct {
	*btree.Scanner
	s    *Store
	sess *btree.Session
}

func (t *treeScan) Close() {
	t.Scanner.Close()
	if err := t.sess.Close(); err != nil {
		t.s.noteErr(err)
	}
}

// openScan opens a scan of [lo, hi] over g's tree through a session of its
// own on pool: scanFrames of cache and width leaf reads in flight.
func (s *Store) openScan(g *generation, pool *pdm.Pool, width int, lo, hi uint64) (*treeScan, error) {
	sess, err := g.session(pool, scanFrames, width)
	if err != nil {
		return nil, err
	}
	sc, err := sess.NewScanner(lo, hi, nil)
	if err != nil {
		sess.Close()
		return nil, err
	}
	return &treeScan{Scanner: sc, s: s, sess: sess}, nil
}

// buildGen stacks the sealed front over a scan of base — the old
// generation, or the young one, or nothing for a young drain with no young
// generation yet — with young's operations between the two when it is
// given, as a Scan stacks its layers (see layers), and bulk-loads the
// result into a fresh tree, entirely on the
// drain budget and at the drain width so foreground lookups keep disk
// headroom; the finished tree is rehomed onto the store's pool and warmed
// so descents after the swap are memory hits.
func (s *Store) buildGen(sealed *overlay, base, young *generation) (*btree.Tree, error) {
	w := s.cfg.drainWidth()
	// The sealed front is read here without mu. That is safe because it is
	// immutable: sealLocked was its last write, and the handover drops it
	// from the view by swapping the pointer, not by changing the overlay.
	patch, err := s.layers(s.drainPool, w, 0, ^uint64(0), base, young, sealed.chunks)
	if err != nil {
		return nil, err
	}
	defer patch.Close()
	l, err := btree.NewLoader(s.vol, s.drainPool, s.cfg.CacheFrames, &btree.BulkLoadOptions{Width: w})
	if err != nil {
		return nil, err
	}
	if err := stream.Drain[record.Record](patch, l.Append); err != nil {
		l.Abort()
		return nil, err
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	// Until the handover the loader can take back every node it wrote
	// without reading one, so a failure of the rehome's flush or of Warm's
	// reads frees the whole tree even on a dead volume.
	tree := l.Tree()
	if err := tree.Rehome(s.pool, s.cfg.CacheFrames); err != nil {
		l.Abort()
		return nil, err
	}
	if err := tree.Warm(); err != nil {
		l.Abort()
		return nil, err
	}
	return tree, nil
}

// releaseGen drops one reference; the last one out reclaims the tree.
func (s *Store) releaseGen(g *generation) {
	if g.refs.Add(-1) == 0 {
		if err := g.tree.Release(); err != nil {
			s.noteErr(err)
		}
	}
}

// releaseGens is releaseGen for each generation given that is not nil.
func (s *Store) releaseGens(gs ...*generation) {
	for _, g := range gs {
		if g != nil {
			s.releaseGen(g)
		}
	}
}

func (s *Store) noteErr(err error) {
	s.errMu.Lock()
	if s.bgErr == nil {
		s.bgErr = err
	}
	s.errMu.Unlock()
}

// StartDrain seals the current front and starts a background drain if one
// is not already in flight; it reports whether a drain is now running. The
// drain it starts compacts: it merges the young generation, if any, and
// the front into the old one, leaving the view one generation.
func (s *Store) StartDrain() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.drainErr != nil {
		return false
	}
	if !s.draining && s.sealedMem == nil && (s.frontOps > 0 || s.young != nil) {
		s.sealLocked(true)
	}
	return s.draining
}

// Draining reports whether a background drain is in flight.
func (s *Store) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Drain flushes everything buffered at the time of the call into the
// current generation and waits for quiescence. Its drains compact, so
// unless writes race it, the view it leaves holds one generation.
func (s *Store) Drain() error {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		if s.drainErr != nil {
			err := s.drainErr
			s.mu.Unlock()
			return err
		}
		if !s.draining && s.sealedMem == nil {
			if s.frontOps == 0 && s.young == nil {
				s.mu.Unlock()
				return nil
			}
			s.sealLocked(true)
		}
		done := s.drainDone
		draining := s.draining
		s.mu.Unlock()
		if draining && done != nil {
			<-done
		}
	}
}

// Stats returns a snapshot of the underlying volume's I/O counters.
func (s *Store) Stats() pdm.Stats { return s.vol.Stats().Snapshot() }

// Epoch returns the view's number, starting at 1; every drain's handover
// advances it.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(s.drains) + 1
}

// Drains returns the number of completed front drains.
func (s *Store) Drains() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.drains
}

// FrontOps returns the number of operations the unsealed front has
// accepted, repeated keys included.
func (s *Store) FrontOps() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.frontOps
}

// Close waits for any in-flight drain, releases every layer of the view,
// and returns the drain reservation. Generations pinned by still-open
// Scanners or Sessions are reclaimed when those close. The first sticky
// drain or background-release error is returned.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	s.frontMem, s.sealedMem = nil, nil
	gen, young := s.gen, s.young
	s.gen, s.young = nil, nil
	err := s.drainErr
	s.mu.Unlock()

	s.releaseGens(gen, young)
	s.drainPool.Close()
	if err != nil {
		return err
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.bgErr
}
