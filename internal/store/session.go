package store

import (
	"em/internal/btree"
	"em/internal/index"
)

// The store and its sessions present the module-wide serving contract.
var (
	_ index.Index   = (*Store)(nil)
	_ index.Session = (*Session)(nil)
)

// Session is a point-read handle with a private cache budget: its reads of
// the old B-tree go through a btree.Session, so many Sessions serve
// lookups concurrently without touching the old generation's shared
// cache. Reads stay read-your-writes — the buffered layers and the young
// directory are consulted first on every call, and a key whose record is
// in the young tree is read through that tree's shared cache.
//
// A Session pins its old generation: the generation's blocks outlive any
// handover until the Session closes. When a full merge installs a newer
// old generation the Session re-pins lazily on its next read, so it never
// serves a key that has already moved below its horizon from the wrong
// layer. Each Session is for one goroutine; distinct Sessions are safe
// concurrently.
type Session struct {
	s      *Store
	cache  int
	width  int
	gen    *generation
	sess   *btree.Session
	broken error
	closed bool
}

// NewSession opens a read session. cacheFrames sizes its private buffer
// manager (zero picks the store's CacheFrames) and width its scan/batch
// striping (zero picks the store's Width); the whole budget is reserved
// from the store's pool until Close.
func (s *Store) NewSession(cacheFrames, width int) (index.Session, error) {
	if cacheFrames < 3 {
		cacheFrames = s.cfg.CacheFrames
	}
	if width < 1 {
		width = s.cfg.Width
	}
	var out *Session
	err := s.gate.Do(func() error {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return ErrClosed
		}
		gen := s.gen
		gen.refs.Add(1)
		s.mu.RUnlock()
		sess, err := openGenSession(gen, s, cacheFrames, width)
		if err != nil {
			s.releaseGen(gen)
			return err
		}
		out = &Session{s: s, cache: cacheFrames, width: width, gen: gen, sess: sess}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// openGenSession opens a btree session under the generation's cache lock
// (NewSession flushes the tree's own cache).
func openGenSession(gen *generation, s *Store, cacheFrames, width int) (*btree.Session, error) {
	gen.mu <- struct{}{}
	defer func() { <-gen.mu }()
	return gen.tree.NewSessionOn(s.pool, cacheFrames, width)
}

// repin moves the session onto cur, which the caller has already
// referenced. A failure poisons the session (its old generation is gone
// from the store's view; continuing to read it would not be
// read-your-writes).
func (ss *Session) repin(cur *generation) error {
	err := ss.sess.Close()
	ss.s.releaseGen(ss.gen)
	ss.gen = cur
	ss.sess = nil
	if err == nil {
		ss.sess, err = openGenSession(cur, ss.s, ss.cache, ss.width)
	}
	if err != nil {
		ss.broken = err
	}
	return err
}

// Get returns the value for key, read-your-writes.
func (ss *Session) Get(key uint64) (uint64, bool, error) {
	v, f, _, err := ss.read(key, nil)
	return v, f, err
}

// GetBatch looks up many keys, the buffered layers first and the
// remainder through the session's level-batched reads.
func (ss *Session) GetBatch(keys []uint64) ([]uint64, []bool, error) {
	_, _, out, err := ss.read(0, keys)
	if err != nil {
		return nil, nil, err
	}
	return out.vals, out.found, nil
}

type batchOut struct {
	vals  []uint64
	found []bool
}

// read serves both Get (keys == nil) and GetBatch under one probe +
// re-pin sequence. Keys whose record is in the young tree are read through
// that tree's shared cache, under its lock, before the session reads the
// old tree's share.
func (ss *Session) read(key uint64, keys []uint64) (uint64, bool, *batchOut, error) {
	if ss.closed {
		return 0, false, nil, ErrClosed
	}
	if ss.broken != nil {
		return 0, false, nil, ss.broken
	}
	s := ss.s
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, false, nil, ErrClosed
	}
	var (
		out           *batchOut
		inYoung, rest []int
		young         *generation
	)
	if keys == nil {
		o, ok, y := s.probeLocked(key)
		if ok {
			s.mu.RUnlock()
			return o.Val, !o.Deleted(), nil, nil
		}
		if y {
			young = s.young
			young.refs.Add(1)
			s.mu.RUnlock()
			v, f, err := young.get(key)
			s.releaseGen(young)
			return v, f, nil, err
		}
	} else {
		out = &batchOut{vals: make([]uint64, len(keys)), found: make([]bool, len(keys))}
		inYoung, rest = s.probeBatchLocked(keys, out.vals, out.found)
		if len(inYoung) > 0 {
			young = s.young
			young.refs.Add(1)
		}
	}
	cur := s.gen
	moved := cur != ss.gen
	if moved {
		cur.refs.Add(1)
	}
	s.mu.RUnlock()
	if young != nil {
		err := young.getBatch(keys, inYoung, out.vals, out.found)
		s.releaseGen(young)
		if err != nil {
			if moved {
				s.releaseGen(cur)
			}
			return 0, false, nil, err
		}
	}
	if moved {
		if err := ss.repin(cur); err != nil {
			return 0, false, nil, err
		}
	}
	if keys == nil {
		v, f, err := ss.sess.Get(key)
		return v, f, nil, err
	}
	if len(rest) > 0 {
		sub := make([]uint64, len(rest))
		for j, i := range rest {
			sub[j] = keys[i]
		}
		v2, f2, err := ss.sess.GetBatch(sub)
		if err != nil {
			return 0, false, nil, err
		}
		for j, i := range rest {
			out.vals[i], out.found[i] = v2[j], f2[j]
		}
	}
	return 0, false, out, nil
}

// Close releases the session's budget and its generation pin.
func (ss *Session) Close() error {
	if ss.closed {
		return nil
	}
	ss.closed = true
	var err error
	if ss.sess != nil {
		err = ss.sess.Close()
	}
	ss.s.releaseGen(ss.gen)
	return err
}
