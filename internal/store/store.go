// Package store composes the module's write-optimal and read-optimal
// halves into an online updatable key-value index — the LSM shape the
// survey's buffer-tree section points at, in the regime where the pending
// updates fit in memory. Inserts and deletes are sequenced into an
// in-memory write front at no I/O: an overlay holding the newest
// operation per key in key order (sorted chunks under a directory of
// first keys), bounded by the seal threshold. When the front crosses that
// threshold it is sealed and drained in the background: its resolved,
// tombstone-carrying operations merge with a scan of the current B-tree
// generation (stream.Patch) through the write-behind bulk loader into a
// fresh generation at Θ(n/B) I/Os, and readers swap over atomically.
//
// Reads stay consistent throughout: Get, GetBatch, and Scan consult the
// unsealed front, the sealed front awaiting handover, and the current
// generation, newest layer first — each key's newest operation wins, so a
// drain is observationally a no-op. A probe of the buffered layers costs
// no I/O and O(log F) comparisons, a range collection O(log F + k) for its
// k operations whatever the front's size F, and read throughput holds
// through a drain.
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
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Config tunes the store.
type Config struct {
	// FrontOps seals the write front after this many accepted operations,
	// repeated keys included. Zero means 8192. The front lives only in
	// memory — an overlay whose chunks run between half and completely
	// full, so at most 48 bytes per buffered operation — so FrontOps bounds
	// the memory the store holds beyond its pool (two fronts' worth while a
	// drain is in flight) and the operations no block on the volume holds
	// yet.
	FrontOps int64
	// CacheFrames sizes each generation's buffer manager and the drain's
	// loader cache. Zero means 8; minimum 3.
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

// generation is one immutable B-tree the store serves reads from. Point
// reads through the tree's own buffer manager are serialized by mu (the
// cache is not thread-safe); Sessions bypass it with private caches. refs
// counts the store's view plus every in-flight Scanner, Session, and
// drain; the tree's blocks are reclaimed when it hits zero.
type generation struct {
	tree  *btree.Tree
	epoch uint64
	mu    sync.Mutex
	refs  atomic.Int64
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

	// The drain's construction budget, reserved once at Open (the
	// extsort.SortIndex pattern): the background rebuild draws from its
	// own pool, so foreground readers never lose frames to it and a
	// too-small pool fails at Open, not mid-drain.
	drainPool *pdm.Pool
	reserve   []*pdm.Frame

	// mu guards the layered read view below. Readers hold RLock across
	// their overlay probes; writes and all view swaps (seal, generation
	// handover) happen under Lock, so a reader always sees one consistent
	// layering. frontMem and sealedMem are the two fronts — newest op per
	// key, in key order — so overlay probes and range collections cost no
	// I/O and a range costs only its own length. sealedMem is non-nil
	// exactly while a sealed front awaits handover, and nothing writes it.
	mu        sync.RWMutex
	seq       uint64 // last sequence number issued; continues across seals
	frontOps  int64  // operations accepted into frontMem, repeated keys included
	frontMem  *overlay
	sealedMem *overlay
	gen       *generation // current B-tree generation
	draining  bool
	drainDone chan struct{} // closed when the in-flight drain finishes
	drainErr  error         // sticky: writes fail after a failed drain
	drains    int64
	closed    bool

	wg sync.WaitGroup // in-flight drain goroutines

	errMu sync.Mutex
	bgErr error // background release errors, surfaced by Close
}

// Open creates an empty store on vol whose steady-state frames are drawn
// from pool. The drain budget (2·CacheFrames + 6·Width − 2·w + 2 frames,
// at drain width w) is reserved from pool immediately and held until Close;
// the pool additionally serves each generation's cache and per-reader
// frames, so size it with headroom beyond the reservation.
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
	drainFrames := 2*cfg.CacheFrames + 6*cfg.Width - 2*cfg.drainWidth() + 2
	reserve, err := pool.AllocN(drainFrames)
	if err != nil {
		return nil, err
	}
	s := &Store{
		vol:       vol,
		pool:      pool,
		cfg:       cfg,
		gate:      index.NewGate(pool, cfg.AdmitQueue, cfg.AdmitWait),
		sealOps:   sealOps,
		drainPool: pdm.NewPool(vol.BlockBytes(), drainFrames),
		reserve:   reserve,
	}
	tree, err := btree.New(vol, pool, &btree.Options{CacheFrames: cfg.CacheFrames})
	if err != nil {
		pdm.ReleaseAll(reserve)
		return nil, err
	}
	s.gen = &generation{tree: tree, epoch: 1}
	s.gen.refs.Store(1)
	s.frontMem = &overlay{}
	return s, nil
}

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
	s.sealLocked()
}

// sealLocked seals the current front, swaps in an empty one, and starts
// the background drain. Caller holds mu exclusively.
func (s *Store) sealLocked() {
	sealed := s.frontMem
	s.sealedMem, s.frontMem, s.frontOps = sealed, &overlay{}, 0
	s.draining = true
	done := make(chan struct{})
	s.drainDone = done
	gen := s.gen
	gen.refs.Add(1)
	s.wg.Add(1)
	go s.drain(sealed, gen, done)
}

// drain runs one background drain to completion, then retriggers if the
// new front already crossed the threshold while the drain ran.
func (s *Store) drain(sealed *overlay, gen *generation, done chan struct{}) {
	defer s.wg.Done()
	err := s.drainOnce(sealed, gen)
	s.mu.Lock()
	s.draining = false
	if err != nil && s.drainErr == nil {
		s.drainErr = err
	}
	if err == nil && s.drainErr == nil && !s.closed && s.overLocked() {
		s.sealLocked()
	}
	s.mu.Unlock()
	s.releaseGen(gen)
	close(done)
}

// drainOnce is one front handover: rebuild the next generation from the
// sealed front ⊕ current generation on the private drain budget, and swap
// readers over, retiring the sealed front in the same swap.
func (s *Store) drainOnce(sealed *overlay, gen *generation) error {
	tree, err := s.buildGen(gen, sealed)
	if err != nil {
		// Reads remain correct (frontMem ⊕ sealedMem ⊕ generation) even
		// though the store no longer accepts writes.
		return err
	}
	next := &generation{tree: tree, epoch: gen.epoch + 1}
	next.refs.Store(1)
	s.mu.Lock()
	oldGen := s.gen
	s.gen = next
	s.sealedMem = nil
	s.drains++
	s.mu.Unlock()
	s.releaseGen(oldGen)
	return nil
}

// buildGen merges the sealed front into a scan of the current generation
// and bulk-loads the result into a fresh tree, entirely on the drain
// budget and at the drain width so foreground lookups keep disk headroom;
// the finished tree is rehomed onto the store's pool and warmed so descents
// after the swap are memory hits.
func (s *Store) buildGen(gen *generation, sealed *overlay) (*btree.Tree, error) {
	w := s.cfg.drainWidth()
	gen.mu.Lock()
	sess, err := gen.tree.NewSessionOn(s.drainPool, s.cfg.CacheFrames, w)
	gen.mu.Unlock()
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	base, err := sess.NewScanner(0, ^uint64(0), nil)
	if err != nil {
		return nil, err
	}
	// The sealed front is read here without mu. That is safe because it is
	// immutable: sealLocked was its last write, and the handover drops it
	// from the view by swapping the pointer, not by changing the overlay.
	patch := patchOps(base, sealed.chunks...)
	tree, err := btree.BulkLoadFrom(s.vol, s.drainPool, s.cfg.CacheFrames, patch,
		&btree.BulkLoadOptions{Width: w})
	patch.Close()
	if err != nil {
		return nil, err
	}
	if err := tree.Rehome(s.pool, s.cfg.CacheFrames); err != nil {
		tree.Release()
		return nil, err
	}
	if err := tree.Warm(); err != nil {
		tree.Release()
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

func (s *Store) noteErr(err error) {
	s.errMu.Lock()
	if s.bgErr == nil {
		s.bgErr = err
	}
	s.errMu.Unlock()
}

// StartDrain seals the current front and starts a background drain if one
// is not already in flight; it reports whether a drain is now running.
func (s *Store) StartDrain() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.drainErr != nil {
		return false
	}
	if !s.draining && s.sealedMem == nil && s.frontOps > 0 {
		s.sealLocked()
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
// current generation and waits for quiescence.
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
			if s.frontOps == 0 {
				s.mu.Unlock()
				return nil
			}
			s.sealLocked()
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

// Epoch returns the current generation's number, starting at 1.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen.epoch
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
	gen := s.gen
	s.gen = nil
	err := s.drainErr
	s.mu.Unlock()

	s.releaseGen(gen)
	pdm.ReleaseAll(s.reserve)
	s.reserve = nil
	if err != nil {
		return err
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.bgErr
}
