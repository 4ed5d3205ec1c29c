package store

// probeLocked looks key up in the layers that answer from memory, newest
// first: the unsealed front's overlay, the sealed front's, then the young
// directory. Caller holds mu (either mode). ok means some buffered
// operation or young tombstone decides the key — op is the newest one —
// and no tree need be read; young means the young tree holds the key's
// record; neither means the old tree decides it. The probe is pure memory:
// two binary searches per overlay (chunk directory, then chunk), and the
// young directory's filter, which rules out almost every key it does not
// hold at one cache line, before its search.
func (s *Store) probeLocked(key uint64) (op Op, ok, young bool) {
	if op, ok := s.frontMem.get(key); ok {
		return op, true, false
	}
	if s.sealedMem != nil {
		if op, ok := s.sealedMem.get(key); ok {
			return op, true, false
		}
	}
	if s.young != nil && s.young.dir.mayHold(key) {
		if i, ok := s.young.dir.find(key); ok {
			if s.young.dir.isDead(i) {
				return Op{Key: key, Seq: 1}, true, false
			}
			return Op{}, false, true
		}
	}
	return Op{}, false, false
}

// probeBatchLocked answers the keys some buffered operation or young
// tombstone decides into vals and found, and returns the indices of the
// rest: those whose record is in the young tree, and those the old tree
// decides. It is probeLocked per key, through one finger per overlay: on
// the sorted sub-batches the sharded store hands down, each probe
// continues from the last. Caller holds mu (either mode).
func (s *Store) probeBatchLocked(keys, vals []uint64, found []bool) (young, old []int) {
	old = make([]int, 0, len(keys))
	front := finger{o: s.frontMem}
	sealed := finger{o: s.sealedMem}
	for i, k := range keys {
		op, ok := front.get(k)
		if !ok && sealed.o != nil {
			op, ok = sealed.get(k)
		}
		if ok {
			if !op.Deleted() {
				vals[i], found[i] = op.Val, true
			}
			continue
		}
		if s.young != nil && s.young.dir.mayHold(k) {
			if j, ok := s.young.dir.find(k); ok {
				if !s.young.dir.isDead(j) {
					young = append(young, i)
				}
				continue
			}
		}
		old = append(old, i)
	}
	return young, old
}

// get looks key up in g's tree, through its own cache under its lock.
func (g *generation) get(key uint64) (uint64, bool, error) {
	g.mu <- struct{}{}
	v, found, err := g.tree.Get(key)
	<-g.mu
	return v, found, err
}

// getBatch looks the keys at idx up in g's tree, through its own cache
// under its lock, into vals and found.
func (g *generation) getBatch(keys []uint64, idx []int, vals []uint64, found []bool) error {
	sub := make([]uint64, len(idx))
	for j, i := range idx {
		sub[j] = keys[i]
	}
	g.mu <- struct{}{}
	v, f, err := g.tree.GetBatch(sub)
	<-g.mu
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
func (s *Store) Get(key uint64) (uint64, bool, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, false, ErrClosed
	}
	op, ok, young := s.probeLocked(key)
	if ok {
		s.mu.RUnlock()
		return op.Val, !op.Deleted(), nil
	}
	gen := s.gen
	if young {
		gen = s.young
	}
	gen.refs.Add(1)
	s.mu.RUnlock()
	// The generation's own buffer manager is not thread-safe; point reads
	// through it are serialized. Sessions read the old tree with private
	// caches and skip this lock.
	v, found, err := gen.get(key)
	s.releaseGen(gen)
	return v, found, err
}

// GetBatch looks up many keys: buffered overlays and the young directory
// first, the remainder through the young and then the old generation's
// level-batched GetBatch, so the counted reads for each B-tree's share
// stay at the parallel-disk batch cost. With admission control configured,
// a starved pool (a generation cache faulting pages in) queues and sheds
// instead of failing hard.
func (s *Store) GetBatch(keys []uint64) ([]uint64, []bool, error) {
	var vals []uint64
	var found []bool
	err := s.gate.Do(func() (err error) {
		vals, found, err = s.getBatch(keys)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// getBatch is one un-gated batch-lookup attempt.
func (s *Store) getBatch(keys []uint64) ([]uint64, []bool, error) {
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, nil, ErrClosed
	}
	inYoung, rest := s.probeBatchLocked(keys, vals, found)
	gen, young := s.gen, s.young
	gen.refs.Add(1)
	if len(inYoung) > 0 {
		young.refs.Add(1)
	}
	s.mu.RUnlock()
	var err error
	if len(inYoung) > 0 {
		err = young.getBatch(keys, inYoung, vals, found)
		s.releaseGen(young)
	}
	if err == nil && len(rest) > 0 {
		err = gen.getBatch(keys, rest, vals, found)
	}
	s.releaseGen(gen)
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}
