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

// Session is a point-read handle with a private cache budget. Its reads
// take the store's own route — the buffered layers and the young
// directory are consulted first on every call, so reads stay
// read-your-writes, and a key whose record is in the young tree is read
// through that tree's shared cache — except that the old B-tree is read
// through the Session's btree.Session, so many Sessions serve lookups
// concurrently without touching the old generation's shared cache.
//
// A Session pins its old generation: the generation's blocks outlive any
// handover until the Session closes. When a full merge installs a newer
// old generation the Session re-pins lazily on its next read of the old
// tree, so it never serves a key that has already moved below its horizon
// from the wrong layer. Each Session is for one goroutine; distinct
// Sessions are safe concurrently.
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
		sess, err := gen.session(s.pool, cacheFrames, width)
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

// usable reports why the session cannot serve: closed, or broken by a
// failed re-pin.
func (ss *Session) usable() error {
	if ss.closed {
		return ErrClosed
	}
	return ss.broken
}

// pins reports whether g is the old generation the session holds: its
// reads of it need no reference beyond the session's own.
func (ss *Session) pins(g *generation) bool { return g == ss.gen }

// reader is the session's reader of the old tree, its private btree
// session, moved first onto g when a full merge has installed g since the
// session last read the old tree. A failed move poisons the session: its
// old generation is gone from the store's view, and continuing to read it
// would not be read-your-writes.
func (ss *Session) reader(g *generation) (treeReader, error) {
	if g == ss.gen {
		return ss.sess, nil
	}
	err := ss.sess.Close()
	ss.s.releaseGen(ss.gen)
	g.refs.Add(1)
	ss.gen, ss.sess = g, nil
	if err == nil {
		ss.sess, err = g.session(ss.s.pool, ss.cache, ss.width)
	}
	if err != nil {
		ss.broken = err
		return nil, err
	}
	return ss.sess, nil
}

// Get returns the value for key, read-your-writes.
func (ss *Session) Get(key uint64) (uint64, bool, error) {
	if err := ss.usable(); err != nil {
		return 0, false, err
	}
	return ss.s.get(ss, key)
}

// GetBatch looks up many keys, the buffered layers first and the
// remainder through level-batched reads of the young tree and the
// session's old one.
func (ss *Session) GetBatch(keys []uint64) ([]uint64, []bool, error) {
	if err := ss.usable(); err != nil {
		return nil, nil, err
	}
	return ss.s.getBatch(ss, keys)
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
