// Indexbuild: construct a searchable index over a large key/value dataset
// three ways and compare their I/O cost — the decision every database
// engine makes when building secondary indexes:
//
//  1. repeated B-tree insertion       Θ(N·log_B N) I/Os
//  2. fused sort→index build          Θ(Sort(N))   I/Os
//  3. buffer tree, then bulk load     Θ(Sort(N))   I/Os, online inserts
//
// Method 2 is em.SortIndex in full: a distribution sort whose memory-sized
// buckets are sorted and appended, smallest keys first, straight into a
// bottom-up bulk loader, so the sorted order is never written out and read
// back, and leaf write-back batched D blocks at a time through the async
// engine. Write-behind changes when the leaf writes happen — D disks at a
// step — never how many there are, so the counted savings shown here are
// exactly the survey's Sort(N) vs N·log_B N gap.
//
// Run with:
//
//	go run ./examples/indexbuild
package main

import (
	"fmt"
	"log"
	"math/rand"

	"em"
)

const (
	blockBytes = 2048
	memBlocks  = 64
	disks      = 4
	n          = 200_000
)

func dataset() []em.Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]em.Record, n)
	for i, k := range rng.Perm(n) {
		recs[i] = em.Record{Key: uint64(k), Val: uint64(i)}
	}
	return recs
}

// freshEnv materialises the dataset on a new volume and resets counters.
func freshEnv(recs []em.Record) (*em.Volume, *em.Pool, *em.File[em.Record]) {
	vol := em.MustVolume(em.Config{BlockBytes: blockBytes, MemBlocks: memBlocks, Disks: disks})
	pool := em.PoolFor(vol)
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
	if err != nil {
		log.Fatal(err)
	}
	vol.Stats().Reset()
	return vol, pool, f
}

func main() {
	recs := dataset()
	fmt.Printf("building an index over %d records (block=%dB, mem=%d blocks, D=%d)\n\n",
		n, blockBytes, memBlocks, disks)

	// 1. Repeated insertion.
	vol, pool, f := freshEnv(recs)
	bt, err := em.NewBTree(vol, pool, 8)
	if err != nil {
		log.Fatal(err)
	}
	if err := em.ForEach(f, pool, func(r em.Record) error {
		_, err := bt.Insert(r.Key, r.Val)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		log.Fatal(err)
	}
	insertIOs := vol.Stats().Total()
	fmt.Printf("%-28s %10d I/Os   (height %d, %d keys)\n",
		"repeated insertion:", insertIOs, bt.Height(), bt.Len())

	// 2. Fused sort→index: the sort emits into the loader, leaves batched
	// D at a time write-behind.
	vol, pool, f = freshEnv(recs)
	bt2, err := em.SortIndex(f, pool, &em.SortIndexOptions{Width: disks})
	if err != nil {
		log.Fatal(err)
	}
	if err := bt2.Close(); err != nil {
		log.Fatal(err)
	}
	fusedIOs := vol.Stats().Total()
	fmt.Printf("%-28s %10d I/Os   (height %d, %d keys)\n",
		"fused sort→index:", fusedIOs, bt2.Height(), bt2.Len())

	// 3. Buffer tree absorbing online inserts, sealed into a bulk load.
	vol, pool, f = freshEnv(recs)
	buf, err := em.NewBufferTree(vol, pool, em.BufferTreeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if err := em.ForEach(f, pool, func(r em.Record) error {
		return buf.Insert(r.Key, r.Val)
	}); err != nil {
		log.Fatal(err)
	}
	sealed, err := buf.Seal()
	if err != nil {
		log.Fatal(err)
	}
	bt3, err := em.BulkLoadBTreeWith(vol, pool, 8, sealed, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := bt3.Close(); err != nil {
		log.Fatal(err)
	}
	bufIOs := vol.Stats().Total()
	fmt.Printf("%-28s %10d I/Os   (height %d, %d keys)\n",
		"buffer tree + bulk load:", bufIOs, bt3.Height(), bt3.Len())

	fmt.Printf("\nthe fused build saves %d I/Os — %.1fx cheaper than repeated insertion —\n",
		insertIOs-fusedIOs, float64(insertIOs)/float64(fusedIOs))
	fmt.Printf("with its leaves written %d at a time, one per disk;\n", disks)
	fmt.Printf("the buffer tree keeps inserts online at %.1fx cheaper.\n",
		float64(insertIOs)/float64(bufIOs))

	// Sanity: the three indexes answer the same queries.
	for _, probe := range []uint64{0, 12345, n - 1, n + 5} {
		_, ok1, _ := bt.Get(probe)
		_, ok2, _ := bt2.Get(probe)
		_, ok3, _ := bt3.Get(probe)
		if ok1 != ok2 || ok2 != ok3 {
			log.Fatalf("indexes disagree on key %d: %v %v %v", probe, ok1, ok2, ok3)
		}
	}
	fmt.Println("\nall three indexes agree on point lookups ✓")
}
