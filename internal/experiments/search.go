package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"em/internal/btree"
	"em/internal/buffertree"
	"em/internal/extsort"
	"em/internal/hashing"
	"em/internal/pqueue"
	"em/internal/record"
	"em/internal/stream"
)

// bulkLoadFromSorted builds a B-tree from a key-sorted record file with a
// minimal cache, for search-cost measurements.
func bulkLoadFromSorted(e Env, sorted *stream.File[record.Record]) (*btree.Tree, error) {
	return btree.BulkLoad(e.Vol, e.Pool, 3, sorted, nil)
}

// coldLookupCost measures the average block reads per point lookup against
// bt with an effectively cold cache (the tree holds the minimum three
// frames, so nearly every level of the search path misses).
func coldLookupCost(e Env, bt *btree.Tree, lookups int) (float64, error) {
	rng := rand.New(rand.NewSource(17))
	start := e.Vol.Stats().Reads
	for i := 0; i < lookups; i++ {
		if _, _, err := bt.Get(rng.Uint64()); err != nil {
			return 0, err
		}
	}
	return float64(e.Vol.Stats().Reads-start) / float64(lookups), nil
}

// BinarySearchSorted looks key up in a key-sorted record file by binary
// search over record indices, one block read per probe: Θ(log₂ N) I/Os.
func BinarySearchSorted(e Env, f *stream.File[record.Record], key uint64) (record.Record, bool, error) {
	lo, hi := int64(0), f.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		r, err := stream.ReadRecordAt(f, e.Pool, mid)
		if err != nil {
			return record.Record{}, false, err
		}
		switch {
		case r.Key == key:
			return r, true, nil
		case r.Key < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return record.Record{}, false, nil
}

// T5OnlineSearch compares the three online dictionaries the survey
// tabulates: binary search over a sorted file (Θ(log₂ N) probes), the
// B-tree (Θ(log_B N)), and extendible hashing (O(1) expected probes).
func T5OnlineSearch(n, lookups int) (*Table, error) {
	t := &Table{
		ID:    "T5",
		Title: "online search: binary Θ(log₂N) > B-tree Θ(log_B N) > hashing O(1) probes",
		Notes: "reads/lookup ordered binary > btree > hash; btree ≈ its height",
	}
	e := NewEnv(1024, 64, 1)
	defer e.Close()
	rs := RandomRecords(23, n)
	f, err := MaterialiseRecords(e, rs)
	if err != nil {
		return nil, err
	}
	sorted, err := extsort.MergeSort(f, e.Pool, record.Record.Less, nil)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(29))
	probe := make([]uint64, lookups)
	for i := range probe {
		if i%2 == 0 {
			probe[i] = rs[rng.Intn(len(rs))].Key // present
		} else {
			probe[i] = rng.Uint64() // almost surely absent
		}
	}

	// Binary search over the sorted file.
	e.Vol.Stats().Reset()
	for _, k := range probe {
		if _, _, err := BinarySearchSorted(e, sorted, k); err != nil {
			return nil, err
		}
	}
	binReads := float64(e.Vol.Stats().Reads) / float64(lookups)

	// B-tree with minimal cache.
	bt, err := bulkLoadFromSorted(e, sorted)
	if err != nil {
		return nil, err
	}
	e.Vol.Stats().Reset()
	for _, k := range probe {
		if _, _, err := bt.Get(k); err != nil {
			return nil, err
		}
	}
	btReads := float64(e.Vol.Stats().Reads) / float64(lookups)
	height := float64(bt.Height())
	if err := bt.Close(); err != nil {
		return nil, err
	}

	// Extendible hashing with minimal cache.
	ht, err := hashing.New(e.Vol, e.Pool, 3)
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		if _, err := ht.Insert(r.Key, r.Val); err != nil {
			return nil, err
		}
	}
	e.Vol.Stats().Reset()
	for _, k := range probe {
		if _, _, err := ht.Get(k); err != nil {
			return nil, err
		}
	}
	hashReads := float64(e.Vol.Stats().Reads) / float64(lookups)
	if err := ht.Close(); err != nil {
		return nil, err
	}

	t.Rows = append(t.Rows, Row{
		Label: fmt.Sprintf("N=%d", n),
		Cells: map[string]float64{
			"binary":   binReads,
			"binPred":  math.Ceil(math.Log2(float64(n))),
			"btree":    btReads,
			"btHeight": height,
			"hash":     hashReads,
		},
		Order: []string{"binary", "binPred", "btree", "btHeight", "hash"},
	})
	return t, nil
}

// T6BufferTreeVsBTree streams N random inserts into a buffer tree and a
// B-tree and compares total I/Os: the buffer tree's amortised
// O((1/B)·log_m(N/B)) per op versus the B-tree's Θ(log_B N).
func T6BufferTreeVsBTree(ns []int) (*Table, error) {
	t := &Table{
		ID:    "T6",
		Title: "batched inserts: buffer tree amortised ≪ B-tree per-op",
		Notes: "bufIOs/op ≪ 1; btreeIOs/op ≥ 1; advantage grows with N",
	}
	for _, n := range ns {
		e := NewEnv(1024, 32, 1)
		defer e.Close()
		rng := rand.New(rand.NewSource(31))
		keys := rng.Perm(n)

		bt, err := buffertree.New(e.Vol, e.Pool, buffertree.Config{})
		if err != nil {
			return nil, err
		}
		e.Vol.Stats().Reset()
		for _, k := range keys {
			if err := bt.Insert(uint64(k), uint64(k)); err != nil {
				return nil, err
			}
		}
		sealed, err := bt.Seal()
		if err != nil {
			return nil, err
		}
		bufIOs := float64(e.Vol.Stats().Total())
		if sealed.Len() != int64(n) {
			return nil, fmt.Errorf("buffer tree lost records: %d != %d", sealed.Len(), n)
		}
		sealed.Release()

		bt2, err := btree.New(e.Vol, e.Pool, &btree.Options{CacheFrames: 4})
		if err != nil {
			return nil, err
		}
		e.Vol.Stats().Reset()
		for _, k := range keys {
			if _, err := bt2.Insert(uint64(k), uint64(k)); err != nil {
				return nil, err
			}
		}
		btreeIOs := float64(e.Vol.Stats().Total())
		if err := bt2.Close(); err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("N=%d", n),
			Cells: map[string]float64{
				"bufIOs":     bufIOs,
				"bufPerOp":   bufIOs / float64(n),
				"btreeIOs":   btreeIOs,
				"btreePerOp": btreeIOs / float64(n),
				"speedup":    ratio(btreeIOs, bufIOs),
			},
			Order: []string{"bufIOs", "bufPerOp", "btreeIOs", "btreePerOp", "speedup"},
		})
	}
	return t, nil
}

// T7PriorityQueue runs the heapsort workload — N pushes then N delete-mins —
// through the external priority queue (O(Sort(N)) total) and through a
// B-tree used as a priority queue (Θ(N·log_B N)).
func T7PriorityQueue(ns []int) (*Table, error) {
	t := &Table{
		ID:    "T7",
		Title: "priority queue: external PQ ≈ Sort(N) total; B-tree PQ ≈ N·log_B N",
		Notes: "pq total ≪ btree total; pq within a small multiple of sortPred",
	}
	for _, n := range ns {
		e := NewEnv(1024, 32, 1)
		defer e.Close()
		rng := rand.New(rand.NewSource(37))
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}

		q, err := pqueue.New(e.Vol, e.Pool)
		if err != nil {
			return nil, err
		}
		e.Vol.Stats().Reset()
		for i, k := range keys {
			if err := q.Push(k, uint64(i)); err != nil {
				return nil, err
			}
		}
		var last uint64
		for i := 0; i < n; i++ {
			k, _, ok, err := q.PopMin()
			if err != nil || !ok {
				return nil, fmt.Errorf("popmin %d: ok=%v err=%v", i, ok, err)
			}
			if k < last {
				return nil, fmt.Errorf("pq order violation")
			}
			last = k
		}
		pqIOs := float64(e.Vol.Stats().Total())
		if err := q.Close(); err != nil {
			return nil, err
		}

		bt, err := btree.New(e.Vol, e.Pool, &btree.Options{CacheFrames: 4})
		if err != nil {
			return nil, err
		}
		e.Vol.Stats().Reset()
		for i, k := range keys {
			if _, err := bt.Insert(k, uint64(i)); err != nil {
				return nil, err
			}
		}
		for i := 0; i < n; i++ {
			k, _, ok, err := bt.Min()
			if err != nil || !ok {
				return nil, fmt.Errorf("btree min %d: ok=%v err=%v", i, ok, err)
			}
			if _, err := bt.Delete(k); err != nil {
				return nil, err
			}
		}
		btIOs := float64(e.Vol.Stats().Total())
		if err := bt.Close(); err != nil {
			return nil, err
		}

		per := e.Vol.BlockBytes() / (record.RecordCodec{}).Size()
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("N=%d", n),
			Cells: map[string]float64{
				"pq":       pqIOs,
				"btree":    btIOs,
				"sortPred": SortPredicted(n, per, e.Pool.Capacity(), 1),
				"speedup":  ratio(btIOs, pqIOs),
			},
			Order: []string{"pq", "btree", "sortPred", "speedup"},
		})
	}
	return t, nil
}

// T9BulkLoad compares index construction: sort + bottom-up build (Sort(N))
// versus N repeated inserts (Θ(N·log_B N)).
func T9BulkLoad(ns []int) (*Table, error) {
	t := &Table{
		ID:    "T9",
		Title: "B-tree build: sort + bulk load ≈ Sort(N) vs repeated insertion Θ(N·log_B N)",
		Notes: "bulk (incl. sort) ≪ repeated inserts; gap grows with N",
	}
	for _, n := range ns {
		e := NewEnv(1024, 32, 1)
		defer e.Close()
		rs := RandomRecords(41, n)
		f, err := MaterialiseRecords(e, rs)
		if err != nil {
			return nil, err
		}

		e.Vol.Stats().Reset()
		sorted, err := extsort.MergeSort(f, e.Pool, record.Record.Less, nil)
		if err != nil {
			return nil, err
		}
		bt, err := btree.BulkLoad(e.Vol, e.Pool, 4, sorted, nil)
		if err != nil {
			return nil, err
		}
		bulkIOs := float64(e.Vol.Stats().Total())
		if bt.Len() != int64(n) {
			return nil, fmt.Errorf("bulk load lost records: %d != %d", bt.Len(), n)
		}
		if err := bt.Close(); err != nil {
			return nil, err
		}

		bt2, err := btree.New(e.Vol, e.Pool, &btree.Options{CacheFrames: 4})
		if err != nil {
			return nil, err
		}
		e.Vol.Stats().Reset()
		for _, r := range rs {
			if _, err := bt2.Insert(r.Key, r.Val); err != nil {
				return nil, err
			}
		}
		insIOs := float64(e.Vol.Stats().Total())
		if err := bt2.Close(); err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("N=%d", n),
			Cells: map[string]float64{
				"bulk":    bulkIOs,
				"inserts": insIOs,
				"speedup": ratio(insIOs, bulkIOs),
			},
			Order: []string{"bulk", "inserts", "speedup"},
		})
	}
	return t, nil
}
