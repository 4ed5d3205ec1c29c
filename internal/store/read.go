package store

// probeLocked looks key up in the buffered overlays, newest first: the
// unsealed front's, then the sealed front's. Caller holds mu (either
// mode). ok means some buffered operation mentions the key — possibly a
// tombstone — and the generation need not be consulted. The probe is pure
// memory, two binary searches per overlay (chunk directory, then chunk).
func (s *Store) probeLocked(key uint64) (Op, bool) {
	if op, ok := s.frontMem.get(key); ok {
		return op, true
	}
	if s.sealedMem != nil {
		return s.sealedMem.get(key)
	}
	return Op{}, false
}

// probeBatchLocked answers the keys some buffered operation mentions into
// vals and found and returns the indices of the rest, for the generation.
// It is probeLocked per key, through one finger per overlay: on the sorted
// sub-batches the sharded store hands down, each probe continues from the
// last. Caller holds mu (either mode).
func (s *Store) probeBatchLocked(keys, vals []uint64, found []bool) []int {
	rest := make([]int, 0, len(keys))
	front := finger{o: s.frontMem}
	sealed := finger{o: s.sealedMem}
	for i, k := range keys {
		op, ok := front.get(k)
		if !ok && sealed.o != nil {
			op, ok = sealed.get(k)
		}
		if !ok {
			rest = append(rest, i)
		} else if !op.Deleted() {
			vals[i], found[i] = op.Val, true
		}
	}
	return rest
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
	if op, ok := s.probeLocked(key); ok {
		s.mu.RUnlock()
		return op.Val, !op.Deleted(), nil
	}
	gen := s.gen
	gen.refs.Add(1)
	s.mu.RUnlock()
	// The generation's own buffer manager is not thread-safe; point reads
	// through it are serialized. Sessions read with private caches and
	// skip this lock.
	gen.mu <- struct{}{}
	v, found, err := gen.tree.Get(key)
	<-gen.mu
	s.releaseGen(gen)
	return v, found, err
}

// GetBatch looks up many keys: buffered overlays first, the remainder
// through the generation's level-batched GetBatch, so the counted reads
// for the B-tree share stay at the parallel-disk batch cost. With
// admission control configured, a starved pool (the generation cache
// faulting pages in) queues and sheds instead of failing hard.
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
	rest := s.probeBatchLocked(keys, vals, found)
	gen := s.gen
	gen.refs.Add(1)
	s.mu.RUnlock()
	if len(rest) > 0 {
		sub := make([]uint64, len(rest))
		for j, i := range rest {
			sub[j] = keys[i]
		}
		gen.mu <- struct{}{}
		v2, f2, err := gen.tree.GetBatch(sub)
		<-gen.mu
		if err != nil {
			s.releaseGen(gen)
			return nil, nil, err
		}
		for j, i := range rest {
			vals[i], found[i] = v2[j], f2[j]
		}
	}
	s.releaseGen(gen)
	return vals, found, nil
}
