// Kvstore: run a mixed read/write workload against the online updatable
// store — the LSM-shaped composition of the module's two optimal halves.
// Writes are absorbed by an in-memory front at no I/O; when the front
// crosses its threshold it is sealed and a background drain merges it
// (tombstones applied, last writer wins) through the write-behind bulk
// loader into the young B-tree generation, or every k-th front with the
// old generation into the next one (the logarithmic method), while reads
// keep being served:
//
//  1. load phase        n inserts through the front vs per-key B-tree cost
//  2. mixed phase       inserts, deletes, overwrites with drains in flight
//  3. serving           Get / GetBatch / snapshot Scan during a live drain,
//     the read side driven through the unified em.Index
//     surface the B-tree and the sharded layouts share
//
// The volume simulates D disks with a fixed per-block service time, so the
// wall clock below is the model's parallel-step cost, not host noise;
// counted block I/Os come from the same Stats all experiments report.
//
// Run with:
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"em"
)

const (
	blockBytes = 2048
	memBlocks  = 256
	disks      = 4
	latency    = 500 * time.Microsecond
	n          = 50_000
	frontOps   = 8192
)

func main() {
	vol := em.MustVolume(em.Config{
		BlockBytes: blockBytes, MemBlocks: memBlocks, Disks: disks, DiskLatency: latency,
	})
	defer vol.Close()
	pool := em.PoolFor(vol)

	st, err := em.OpenStore(vol, pool, em.StoreConfig{FrontOps: frontOps})
	if err != nil {
		log.Fatal(err)
	}

	// Load: n random-order inserts. The front holds them in memory and the
	// background drains rebuild generations a whole block at a time, so
	// total I/O stays far below n·log_B n per-key inserts.
	rng := rand.New(rand.NewSource(1))
	vol.Stats().Reset()
	start := time.Now()
	for i, k := range rng.Perm(n) {
		if err := st.Insert(uint64(k+1), uint64(i)); err != nil {
			log.Fatal(err)
		}
	}
	if err := st.Drain(); err != nil {
		log.Fatal(err)
	}
	s := vol.Stats().Snapshot()
	fmt.Printf("load     %6d inserts   %8.0fms   %6d reads %6d writes   %d drains\n",
		n, ms(start), s.Reads, s.Writes, st.Drains())

	// Mixed: deletes, overwrites, and fresh inserts interleaved; drains
	// trigger themselves as the front fills, while every read below stays
	// correct.
	vol.Stats().Reset()
	start = time.Now()
	for i := 0; i < n/2; i++ {
		k := uint64(rng.Intn(n) + 1)
		switch i % 4 {
		case 0:
			if err := st.Delete(k); err != nil {
				log.Fatal(err)
			}
		default:
			if err := st.Insert(k, uint64(i)); err != nil {
				log.Fatal(err)
			}
		}
	}
	s = vol.Stats().Snapshot()
	fmt.Printf("mixed    %6d updates   %8.0fms   %6d reads %6d writes   %d drains\n",
		n/2, ms(start), s.Reads, s.Writes, st.Drains())

	// Serve while a drain runs: seal the current front and read through
	// the handover. The sealed front's resolved ops are mirrored in
	// memory, the old generation stays pinned for in-flight readers, and
	// the rebuild streams at half width, so lookups keep their floor.
	st.StartDrain()
	start = time.Now()
	reads := 0
	for st.Draining() {
		if _, _, err := st.Get(uint64(rng.Intn(n) + 1)); err != nil {
			log.Fatal(err)
		}
		reads++
	}
	if reads > 0 {
		fmt.Printf("serve    %6d gets during drain, %.0f qps\n",
			reads, float64(reads)/time.Since(start).Seconds())
	}

	// The snapshot scan and the batched session run through the unified
	// em.Index surface — the store, the plain B-tree, and the sharded
	// layouts all serve this same function unchanged.
	cnt, hits, err := snapshotReads(st, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scan     %6d records in [1,2048]\n", cnt)
	fmt.Printf("session  %6d batched gets, %d hits, epoch %d\n", 512, hits, st.Epoch())
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
}

// snapshotReads drives the snapshot read side through any em.Index: a
// range scan — opened now, it sees exactly the index as of this moment,
// even if writes and drains continue underneath — and a batched read
// session with a private cache budget (a store's session re-pins itself
// when a drain hands over a new generation).
func snapshotReads(index em.Index, rng *rand.Rand) (scanned, hits int, err error) {
	sc, err := index.Scan(1, 2048)
	if err != nil {
		return 0, 0, err
	}
	for {
		_, ok, err := sc.Next()
		if err != nil {
			sc.Close()
			return 0, 0, err
		}
		if !ok {
			break
		}
		scanned++
	}
	sc.Close()

	sess, err := index.NewSession(0, 0)
	if err != nil {
		return 0, 0, err
	}
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64(rng.Intn(n) + 1)
	}
	_, found, err := sess.GetBatch(keys)
	if err != nil {
		sess.Close()
		return 0, 0, err
	}
	for _, ok := range found {
		if ok {
			hits++
		}
	}
	return scanned, hits, sess.Close()
}

func ms(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
