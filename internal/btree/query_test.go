package btree

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// bulkTree builds a tree over keys i*2 -> i for i in [0, n) on a fresh
// volume, so odd probes miss and even probes hit.
func bulkTree(t testing.TB, vol *pdm.Volume, pool *pdm.Pool, n int, opts *BulkLoadOptions) *Tree {
	t.Helper()
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: uint64(i * 2), Val: uint64(i)}
	}
	f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := BulkLoad(vol, pool, 8, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGetBatchBasic(t *testing.T) {
	vol, pool := newEnv(t)
	tr := bulkTree(t, vol, pool, 1000, nil)

	// Empty batch.
	vals, found, err := tr.GetBatch(nil)
	if err != nil || len(vals) != 0 || len(found) != 0 {
		t.Fatalf("empty batch: %v %v %v", vals, found, err)
	}

	// Mixed present/absent keys with duplicates, deliberately unsorted.
	keys := []uint64{14, 3, 1998, 14, 0, 2001, 500, 500}
	vals, found, err = tr.GetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		wantOK := k%2 == 0 && k < 2000
		if found[i] != wantOK {
			t.Fatalf("key %d: found=%v want %v", k, found[i], wantOK)
		}
		if wantOK && vals[i] != k/2 {
			t.Fatalf("key %d: val=%d want %d", k, vals[i], k/2)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// TestQuickGetBatchMatchesGets is the batched-lookup acceptance property at
// the engine level: from the same cold cache state, GetBatch must return
// exactly what a loop of Gets returns while counting no more block reads,
// across random tree sizes/heights, batch sizes, disk counts, cache sizes
// (down to the three-frame minimum, far fewer than the internal nodes, so
// retained pages evict each other), and both construction paths (bulk load
// and random insertion).
func TestQuickGetBatchMatchesGets(t *testing.T) {
	prop := func(seedRaw uint32, nRaw, qRaw uint16, disksRaw, framesRaw uint8, inserted bool) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := 1 + int(nRaw)%3000
		q := 1 + int(qRaw)%600
		disks := 1 + int(disksRaw)%4
		frames := 3 + int(framesRaw)%10
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 64, Disks: disks})
		pool := pdm.PoolFor(vol)

		var tr *Tree
		var err error
		if inserted {
			tr, err = New(vol, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range rng.Perm(n) {
				if _, err := tr.Insert(uint64(k*2), uint64(k)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			tr = bulkTree(t, vol, pool, n, &BulkLoadOptions{Width: disks})
		}
		keys := make([]uint64, q)
		for i := range keys {
			keys[i] = uint64(rng.Intn(2*n + 2))
		}

		// Loop of Gets from a cold cache.
		if err := tr.Rehome(pool, frames); err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		loopVals := make([]uint64, q)
		loopFound := make([]bool, q)
		for i, k := range keys {
			loopVals[i], loopFound[i], err = tr.Get(k)
			if err != nil {
				t.Fatal(err)
			}
		}
		loopReads := vol.Stats().Snapshot().Reads

		// GetBatch from an equally cold cache.
		if err := tr.Rehome(pool, frames); err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		vals, found, err := tr.GetBatch(keys)
		if err != nil {
			t.Fatal(err)
		}
		batchReads := vol.Stats().Snapshot().Reads

		for i := range keys {
			if vals[i] != loopVals[i] || found[i] != loopFound[i] {
				t.Logf("n=%d q=%d key %d: batch (%d,%v) loop (%d,%v)",
					n, q, keys[i], vals[i], found[i], loopVals[i], loopFound[i])
				return false
			}
		}
		if batchReads > loopReads {
			t.Logf("n=%d q=%d D=%d frames=%d inserted=%v: batch %d reads > loop %d",
				n, q, disks, frames, inserted, batchReads, loopReads)
			return false
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if pool.InUse() != 0 {
			t.Fatalf("frame leak: %d", pool.InUse())
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	// The shape quick may not draw: 19 internal nodes through 3 and 5 frames.
	for _, frames := range []uint8{0, 2} {
		if !prop(21, 2999, 599, 3, frames, false) {
			t.Fatalf("internal nodes outnumbering %d frames: batch != loop", 3+frames)
		}
	}
}

// TestGetBatchDedupesSharedInternals pins the headline saving: a batch big
// enough to route many keys through every internal node must read each
// internal node once, i.e. strictly fewer total reads than the Get loop.
func TestGetBatchDedupesSharedInternals(t *testing.T) {
	vol, pool := newEnv(t)
	tr := bulkTree(t, vol, pool, 4000, nil)
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(8000))
	}
	if err := tr.Rehome(pool, 8); err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	for _, k := range keys {
		if _, _, err := tr.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	loopReads := vol.Stats().Snapshot().Reads
	if err := tr.Rehome(pool, 8); err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	if _, _, err := tr.GetBatch(keys); err != nil {
		t.Fatal(err)
	}
	batchReads := vol.Stats().Snapshot().Reads
	if batchReads >= loopReads {
		t.Fatalf("batch reads %d not strictly below loop reads %d", batchReads, loopReads)
	}
	tr.Close()
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// scanAll drains a scanner into (keys, vals), closing it.
func scanAll(t testing.TB, sc *Scanner) (ks, vs []uint64) {
	t.Helper()
	defer sc.Close()
	err := stream.Drain[record.Record](sc, func(r record.Record) error {
		ks = append(ks, r.Key)
		vs = append(vs, r.Val)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ks, vs
}

// leafOfKey maps every key in the tree to the address of the leaf holding
// it, walking the leaf chain through the tree's cache.
func leafOfKey(t testing.TB, tr *Tree) map[uint64]int64 {
	t.Helper()
	addr := tr.root
	for level := tr.height; level > 1; level-- {
		p, err := tr.cache.Pin(addr, internal)
		if err != nil {
			t.Fatal(err)
		}
		addr = tr.child(p, 0)
		tr.cache.Unpin(p)
	}
	leaf := map[uint64]int64{}
	for addr >= 0 {
		p, err := tr.cache.Pin(addr, !internal)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count(p); i++ {
			leaf[bufLeafKey(p.Buf, i)] = addr
		}
		next := nextLeaf(p)
		tr.cache.Unpin(p)
		addr = next
	}
	return leaf
}

// scanMixed drains sc through a seeded mix of Next and NextBatch, reusing
// one batch buffer, and returns the records and the batches NextBatch
// handed out. After the last record both methods must report the end with
// no error.
func scanMixed(t testing.TB, sc *Scanner, rng *rand.Rand) (recs []record.Record, batches [][]record.Record) {
	t.Helper()
	var buf []record.Record
	for {
		if rng.Intn(2) == 0 {
			r, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			recs = append(recs, r)
			continue
		}
		var err error
		buf, err = sc.NextBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) == 0 {
			break
		}
		recs = append(recs, buf...)
		batches = append(batches, slices.Clone(buf))
	}
	if b, err := sc.NextBatch(buf); len(b) != 0 || err != nil {
		t.Fatalf("NextBatch after the end: %d records, err %v", len(b), err)
	}
	if _, ok, err := sc.Next(); ok || err != nil {
		t.Fatalf("Next after the end: ok=%v err=%v", ok, err)
	}
	return recs, batches
}

// TestQuickScannerMatchesRange: from the same cache state, a prefetched
// scan must return exactly Range's records in order while counting no more
// reads, across random trees (inserted and bulk-loaded, with deletions),
// bounds, and widths. The scan drains through a seeded mix of Next and
// NextBatch: no batch crosses a leaf, and after Close both methods report
// stream.ErrClosed.
func TestQuickScannerMatchesRange(t *testing.T) {
	prop := func(seedRaw uint32, nRaw uint16, widthRaw, disksRaw uint8, inserted bool) bool {
		rng := rand.New(rand.NewSource(int64(seedRaw)))
		n := 1 + int(nRaw)%2500
		width := 1 + int(widthRaw)%5
		disks := 1 + int(disksRaw)%4
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 64, Disks: disks})
		pool := pdm.PoolFor(vol)

		var tr *Tree
		var err error
		if inserted {
			tr, err = New(vol, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range rng.Perm(n) {
				if _, err := tr.Insert(uint64(k*2), uint64(k)); err != nil {
					t.Fatal(err)
				}
			}
			// Random deletions exercise merged/redistributed leaves.
			for i := 0; i < n/4; i++ {
				if _, err := tr.Delete(uint64(rng.Intn(n) * 2)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			tr = bulkTree(t, vol, pool, n, &BulkLoadOptions{Width: disks})
		}
		lo := uint64(rng.Intn(2*n + 2))
		hi := uint64(rng.Intn(2*n + 2))
		switch rng.Intn(4) {
		case 0:
			lo, hi = 0, ^uint64(0) // full scan
		case 1:
			hi = lo + uint64(rng.Intn(64)) // short range
		}

		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		var rKeys, rVals []uint64
		if err := tr.Range(lo, hi, func(k, v uint64) error {
			rKeys = append(rKeys, k)
			rVals = append(rVals, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		rangeReads := vol.Stats().Snapshot().Reads

		if err := tr.Rehome(pool, 8); err != nil {
			t.Fatal(err)
		}
		vol.Stats().Reset()
		sc, err := tr.NewScanner(pool, lo, hi, &ScanOptions{Width: width})
		if err != nil {
			t.Fatal(err)
		}
		recs, batches := scanMixed(t, sc, rng)
		scanReads := vol.Stats().Snapshot().Reads
		sc.Close()
		if _, ok, err := sc.Next(); ok || !errors.Is(err, stream.ErrClosed) {
			t.Fatalf("Next after Close: ok=%v err=%v", ok, err)
		}
		if b, err := sc.NextBatch(nil); len(b) != 0 || !errors.Is(err, stream.ErrClosed) {
			t.Fatalf("NextBatch after Close: %d records, err %v", len(b), err)
		}

		if len(recs) != len(rKeys) {
			t.Logf("n=%d lo=%d hi=%d w=%d: scanner %d records, range %d",
				n, lo, hi, width, len(recs), len(rKeys))
			return false
		}
		for i := range rKeys {
			if recs[i].Key != rKeys[i] || recs[i].Val != rVals[i] {
				t.Logf("record %d: scanner (%d,%d) range (%d,%d)", i, recs[i].Key, recs[i].Val, rKeys[i], rVals[i])
				return false
			}
		}
		if scanReads > rangeReads {
			t.Logf("n=%d lo=%d hi=%d w=%d inserted=%v: scan %d reads > range %d",
				n, lo, hi, width, inserted, scanReads, rangeReads)
			return false
		}
		leaf := leafOfKey(t, tr)
		for _, b := range batches {
			for _, r := range b {
				if leaf[r.Key] != leaf[b[0].Key] {
					t.Logf("one batch holds key %d of leaf %d and key %d of leaf %d",
						b[0].Key, leaf[b[0].Key], r.Key, leaf[r.Key])
					return false
				}
			}
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if pool.InUse() != 0 {
			t.Fatalf("frame leak: %d", pool.InUse())
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestScannerFaultSticks fails a leaf read in the middle of a scan with a
// FaultPlan crash point: the error reaches the caller through whichever
// method asked, then sticks on both Next and NextBatch, and Close returns
// every frame the scan took.
func TestScannerFaultSticks(t *testing.T) {
	const n = 1500
	env := func(fault *pdm.FaultPlan) (*pdm.Volume, *pdm.Pool, *Tree) {
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 96, Disks: 2, Fault: fault})
		pool := pdm.PoolFor(vol)
		return vol, pool, bulkTree(t, vol, pool, n, &BulkLoadOptions{Width: 2})
	}
	// A fault-free twin counts the transfers of the build and of the scan.
	vol, pool, tr := env(nil)
	st := vol.Stats().Snapshot()
	pre := int64(st.Reads + st.Writes)
	sc, err := tr.NewScanner(pool, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := scanMixed(t, sc, rand.New(rand.NewSource(1))); len(recs) != n {
		t.Fatalf("clean scan returned %d records, want %d", len(recs), n)
	}
	sc.Close()
	scan := int64(vol.Stats().Snapshot().Reads) - int64(st.Reads)
	if scan < 8 {
		t.Fatalf("the scan read %d blocks; the test needs leaves to fail", scan)
	}

	for _, batched := range []bool{false, true} {
		vol, pool, tr := env(&pdm.FaultPlan{FailAfter: pre + scan/2})
		free := pool.Free()
		sc, err := tr.NewScanner(pool, 0, ^uint64(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		var buf []record.Record
		for err == nil {
			if batched {
				buf, err = sc.NextBatch(buf)
				got += len(buf)
				if err == nil && len(buf) == 0 {
					t.Fatal("the scan ended on a dead disk")
				}
				continue
			}
			var ok bool
			if _, ok, err = sc.Next(); ok {
				got++
			} else if err == nil {
				t.Fatal("the scan ended on a dead disk")
			}
		}
		if !errors.Is(err, pdm.ErrFaulted) {
			t.Fatalf("batched=%v: scan failed with %v, want ErrFaulted", batched, err)
		}
		if got == 0 || got >= n {
			t.Fatalf("batched=%v: the fault fired after %d of %d records", batched, got, n)
		}
		if _, ok, err := sc.Next(); ok || !errors.Is(err, pdm.ErrFaulted) {
			t.Fatalf("batched=%v: Next after the fault: ok=%v err=%v", batched, ok, err)
		}
		if b, err := sc.NextBatch(buf); len(b) != 0 || !errors.Is(err, pdm.ErrFaulted) {
			t.Fatalf("batched=%v: NextBatch after the fault: %d records, err %v", batched, len(b), err)
		}
		sc.Close()
		if pool.Free() != free {
			t.Fatalf("batched=%v: %d frames free after Close, %d before the scan", batched, pool.Free(), free)
		}
		vol.Close()
	}
}

// TestScannerFullScanReadsIdentical pins the F12 invariant at unit level:
// with internal nodes resident (Warm) and leaves cold, a full prefetched
// scan issues exactly the reads of the synchronous Range.
func TestScannerFullScanReadsIdentical(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 96, Disks: 4})
	pool := pdm.PoolFor(vol)
	// 1500 records over 256-byte blocks: 108 leaves under 9 internal nodes,
	// which fit a 16-frame cache with room to spare, so Warm keeps the whole
	// fan-out resident.
	tr := bulkTree(t, vol, pool, 1500, &BulkLoadOptions{Width: 4})
	if err := tr.Rehome(pool, 16); err != nil {
		t.Fatal(err)
	}
	if err := tr.Warm(); err != nil {
		t.Fatal(err)
	}

	vol.Stats().Reset()
	sc, err := tr.NewScanner(pool, 0, ^uint64(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	sKeys, _ := scanAll(t, sc)
	scanReads := vol.Stats().Snapshot().Reads

	// The scan must not have polluted the cache: Range sees the same warm
	// internals and cold leaves.
	vol.Stats().Reset()
	cnt := 0
	if err := tr.Range(0, ^uint64(0), func(k, v uint64) error { cnt++; return nil }); err != nil {
		t.Fatal(err)
	}
	rangeReads := vol.Stats().Snapshot().Reads

	if len(sKeys) != 1500 || cnt != 1500 {
		t.Fatalf("scan %d range %d records, want 1500", len(sKeys), cnt)
	}
	if scanReads != rangeReads {
		t.Fatalf("scan reads %d != range reads %d", scanReads, rangeReads)
	}
	tr.Close()
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

func TestWarmMakesDescentsResident(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 256, MemBlocks: 64, Disks: 1})
	pool := pdm.PoolFor(vol)
	tr := bulkTree(t, vol, pool, 1500, nil) // 9 internal nodes: fits 16 frames
	if err := tr.Rehome(pool, 16); err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	if err := tr.Warm(); err != nil {
		t.Fatal(err)
	}
	if reads := vol.Stats().Snapshot().Reads; reads != 9 {
		t.Fatalf("warm read %d blocks, want the 9 internal nodes", reads)
	}
	// Every descent now misses at most the leaf: the 9 internal nodes are
	// retained in the 16 frames and leaf traffic cannot evict one.
	vol.Stats().Reset()
	for k := uint64(0); k < 100; k++ {
		if _, _, err := tr.Get(k * 29); err != nil {
			t.Fatal(err)
		}
	}
	if reads := vol.Stats().Snapshot().Reads; reads > 100 {
		t.Fatalf("warm tree cost %d reads over 100 gets, want at most 1 per get", reads)
	}
	tr.Close()
}

func TestMax(t *testing.T) {
	tr, _, _ := newTree(t)
	if _, _, ok, err := tr.Max(); err != nil || ok {
		t.Fatalf("max on empty: ok=%v err=%v", ok, err)
	}
	for _, k := range []uint64{50, 20, 90, 10, 70} {
		tr.Insert(k, k*2)
	}
	k, v, ok, err := tr.Max()
	if err != nil || !ok || k != 90 || v != 180 {
		t.Fatalf("max = %d,%d,%v,%v", k, v, ok, err)
	}
	// Max tracks deletions of the right edge.
	if _, err := tr.Delete(90); err != nil {
		t.Fatal(err)
	}
	k, _, ok, err = tr.Max()
	if err != nil || !ok || k != 70 {
		t.Fatalf("max after delete = %d,%v,%v", k, ok, err)
	}
}

// TestSessionsConcurrent serves a mixed point/range workload from four
// read sessions on four goroutines against one latency-engine volume; run
// under -race by make ci, it is the data-race gate for the session design.
func TestSessionsConcurrent(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{
		BlockBytes: 256, MemBlocks: 128, Disks: 4,
		DiskLatency: 20 * time.Microsecond,
	})
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	const n = 2000
	tr := bulkTree(t, vol, pool, n, &BulkLoadOptions{Width: 4})

	const g = 4
	sessions := make([]*Session, g)
	for i := range sessions {
		s, err := tr.NewSessionOn(pool, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	var wg sync.WaitGroup
	errs := make(chan error, g)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 150; j++ {
				k := uint64(rng.Intn(2 * n))
				if j%10 == 9 {
					sc, err := s.NewScanner(k, k+200, nil)
					if err != nil {
						errs <- err
						return
					}
					prev := uint64(0)
					first := true
					err = stream.Drain[record.Record](sc, func(r record.Record) error {
						if !first && r.Key <= prev {
							t.Errorf("session %d: scan out of order", i)
						}
						prev, first = r.Key, false
						return nil
					})
					sc.Close()
					if err != nil {
						errs <- err
						return
					}
					continue
				}
				v, ok, err := s.Get(k)
				if err != nil {
					errs <- err
					return
				}
				if want := k%2 == 0 && k < 2*n; ok != want || (ok && v != k/2) {
					t.Errorf("session %d: get(%d) = %d,%v", i, k, v, ok)
				}
			}
		}(i, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != 0 {
		t.Fatalf("frame leak: %d", pool.InUse())
	}
}

// TestSessionBudgetReserved checks the up-front reservation: opening a
// session charges its whole budget to the caller's pool, closing returns
// it, and a pool too small to cover the budget refuses the session.
func TestSessionBudgetReserved(t *testing.T) {
	vol, pool := newEnv(t)
	tr := bulkTree(t, vol, pool, 500, nil)
	base := pool.InUse()
	s, err := tr.NewSessionOn(pool, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.InUse() - base; got != 8+2*2 {
		t.Fatalf("session reserved %d frames, want %d", got, 8+2*2)
	}
	if _, _, err := s.GetBatch([]uint64{2, 4, 999}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.InUse() != base {
		t.Fatalf("close left %d frames on loan", pool.InUse()-base)
	}
	tight := pdm.NewPool(vol.BlockBytes(), 5)
	if _, err := tr.NewSessionOn(tight, 8, 2); err == nil {
		t.Fatal("session opened past the pool budget")
	}
	if tight.InUse() != 0 {
		t.Fatalf("failed open leaked %d frames", tight.InUse())
	}
	tr.Close()
}

// TestSessionReadsIntoCarvedFrames checks that a session's budget is the
// memory it uses: on a warm pool, a hundred sessions that each read
// through their cache and a scanner allocate less than one block per
// session, because every read lands in a frame carved from the caller's
// pool. A session closed while its scanner is still open hands that
// scanner's frames back when the scanner closes.
func TestSessionReadsIntoCarvedFrames(t *testing.T) {
	const bb = 4080
	vol := pdm.MustVolume(pdm.Config{BlockBytes: bb, MemBlocks: 64, Disks: 2})
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	tr := bulkTree(t, vol, pool, 20000, nil)
	defer tr.Close()
	cycle := func() {
		s, err := tr.NewSessionOn(pool, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(2468); err != nil || !ok {
			t.Fatalf("get: %v %v", ok, err)
		}
		sc, err := s.NewScanner(1000, 1200, nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		sc.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm: the pool makes the buffers the sessions will read into
	const cycles = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= bb {
		t.Fatalf("a session cycle allocated %d bytes, want less than one %d-byte block", per, bb)
	}

	free := pool.Free()
	s, err := tr.NewSessionOn(pool, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.NewScanner(0, 40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.Free() == free {
		t.Fatal("closing the session took back the open scanner's frames")
	}
	sc.Close()
	if pool.Free() != free {
		t.Fatalf("scanner closed after its session: pool free %d, want %d", pool.Free(), free)
	}
}
