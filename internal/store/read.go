package store

// Every point read — Store.Get and GetBatch, Session.Get and GetBatch —
// takes one route: the layered probe under the view lock, then the young
// tree for a key its directory holds live and the old tree for the rest.
// The callers differ only in how the old tree is read, which they supply
// as an oldTree.

// treeReader reads one generation's tree: a generation through its shared
// cache under its lock, or a btree.Session through its private one.
type treeReader interface {
	Get(key uint64) (uint64, bool, error)
	GetBatch(keys []uint64) ([]uint64, []bool, error)
}

// oldTree supplies a point read's reader of the old tree.
type oldTree interface {
	// pins reports whether the reader already holds a reference on g, the
	// view's old generation when the read probes; if not, the route takes
	// one until the read is done. It is called under the view lock.
	pins(g *generation) bool
	// reader returns the reader of g.
	reader(g *generation) (treeReader, error)
}

// The Store holds no generation of its own and reads the old tree through
// the generation's shared cache.
func (s *Store) pins(*generation) bool { return false }

func (s *Store) reader(g *generation) (treeReader, error) { return g, nil }

// probeLocked looks key up in the layers that answer from memory, newest
// first: the unsealed front's overlay through front, the sealed front's
// through sealed (whose overlay is nil when there is none), then the young
// directory. Caller holds mu (either mode). ok means some buffered
// operation or young tombstone decides the key — op is the newest one —
// and no tree need be read; young means the young tree holds the key's
// record; neither means the old tree decides it. The probe is pure memory:
// each layer's filter first, which rules out almost every key the layer
// does not hold at one cache line, then for a key it passes the layer's
// search — two per overlay (chunk directory, then chunk), one of the young
// directory. A key no layer holds, the common case, costs three filter
// words and no search. A batch probes through one finger per overlay, so
// on the sorted sub-batches the sharded store hands down each probe
// continues from the last; a single key's fresh fingers search as a plain
// lookup does.
func (s *Store) probeLocked(front, sealed *finger, key uint64) (op Op, ok, young bool) {
	if op, ok := front.get(key); ok {
		return op, true, false
	}
	if sealed.o != nil {
		if op, ok := sealed.get(key); ok {
			return op, true, false
		}
	}
	if s.young != nil && s.young.dir.filter.mayHold(key) {
		if i, ok := s.young.dir.find(key); ok {
			if s.young.dir.isDead(i) {
				return Op{Key: key, Seq: 1}, true, false
			}
			return Op{}, false, true
		}
	}
	return Op{}, false, false
}

// Get is btree.Tree.Get through g's shared cache, under its lock.
func (g *generation) Get(key uint64) (uint64, bool, error) {
	g.mu <- struct{}{}
	v, found, err := g.tree.Get(key)
	<-g.mu
	return v, found, err
}

// GetBatch is btree.Tree.GetBatch through g's shared cache, under its
// lock.
func (g *generation) GetBatch(keys []uint64) ([]uint64, []bool, error) {
	g.mu <- struct{}{}
	v, f, err := g.tree.GetBatch(keys)
	<-g.mu
	return v, f, err
}

// get is the route of a one-key read.
func (s *Store) get(old oldTree, key uint64) (uint64, bool, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, false, ErrClosed
	}
	op, ok, young := s.probeLocked(&finger{o: s.frontMem}, &finger{o: s.sealedMem}, key)
	if ok {
		s.mu.RUnlock()
		return op.Val, !op.Deleted(), nil
	}
	g := s.gen
	if young {
		g = s.young
	}
	if young || !old.pins(g) {
		g.refs.Add(1)
		defer s.releaseGen(g)
	}
	s.mu.RUnlock()
	var r treeReader = g
	if !young {
		var err error
		if r, err = old.reader(g); err != nil {
			return 0, false, err
		}
	}
	return r.Get(key)
}

// getBatch is the route of a batch read: the probe decides what it can,
// and each tree's share of the rest is one level-batched read, the young
// tree's first, so the counted reads stay at the parallel-disk batch cost.
func (s *Store) getBatch(old oldTree, keys []uint64) ([]uint64, []bool, error) {
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	inOld := make([]int, 0, len(keys))
	var inYoung []int
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, nil, ErrClosed
	}
	front, sealed := finger{o: s.frontMem}, finger{o: s.sealedMem}
	for i, k := range keys {
		switch op, ok, young := s.probeLocked(&front, &sealed, k); {
		case ok:
			vals[i], found[i] = op.Val, !op.Deleted()
		case young:
			inYoung = append(inYoung, i)
		default:
			inOld = append(inOld, i)
		}
	}
	young, gen := s.young, s.gen
	if len(inYoung) > 0 {
		young.refs.Add(1)
		defer s.releaseGen(young)
	}
	if len(inOld) > 0 && !old.pins(gen) {
		gen.refs.Add(1)
		defer s.releaseGen(gen)
	}
	s.mu.RUnlock()
	var err error
	if len(inYoung) > 0 {
		err = readInto(young, keys, inYoung, vals, found)
	}
	if err == nil && len(inOld) > 0 {
		var r treeReader
		if r, err = old.reader(gen); err == nil {
			err = readInto(r, keys, inOld, vals, found)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// readInto looks the keys at idx up through r, into vals and found.
func readInto(r treeReader, keys []uint64, idx []int, vals []uint64, found []bool) error {
	sub := make([]uint64, len(idx))
	for j, i := range idx {
		sub[j] = keys[i]
	}
	v, f, err := r.GetBatch(sub)
	if err != nil {
		return err
	}
	for j, i := range idx {
		vals[i], found[i] = v[j], f[j]
	}
	return nil
}

// Get returns the value for key. The read reflects every operation
// accepted before it — read-your-writes, including while a drain is in
// flight.
func (s *Store) Get(key uint64) (uint64, bool, error) { return s.get(s, key) }

// GetBatch looks up many keys: buffered overlays and the young directory
// first, the remainder through the young and then the old generation's
// level-batched GetBatch. With admission control configured, a starved
// pool (a generation cache faulting pages in) queues and sheds instead of
// failing hard.
func (s *Store) GetBatch(keys []uint64) ([]uint64, []bool, error) {
	var vals []uint64
	var found []bool
	err := s.gate.Do(func() (err error) {
		vals, found, err = s.getBatch(s, keys)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}
