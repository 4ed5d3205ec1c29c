package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"em"
	"em/internal/buffertree"
	"em/internal/cache"
	"em/internal/index"
	"em/internal/pdm"
	"em/internal/stream"
)

// The layer ladder. After a workload's passes, the traced run calls each
// layer's public functions directly, on volumes of the workload's regime and
// geometry, and times them. Every call group is one span <layer>.<function>
// under a probe.<layer> parent, so a layer's self time can be read off as its
// span minus the spans of the layer below on the same records or keys.

// probeSizes scales the ladder to the regime: a block costs nanoseconds on
// the cpu regime, tens of microseconds on files and 2 ms on the model.
type probeSizes struct {
	recs     int // records streamed, sorted, loaded and scanned; a power of two
	blockOps int // single-block and cache-miss operations
	cpuOps   int // operations that never reach a disk
	lookups  int // Get calls; GetBatch requests are a 64th of that
	inserts  int // operations into trees, buffer trees and stores
}

func probeSizesFor(reg regime, quick bool) probeSizes {
	sz := probeSizes{recs: 1 << 20, blockOps: 1 << 15, cpuOps: 1 << 20, lookups: 1 << 16, inserts: 1 << 16}
	switch {
	case reg.file:
		sz = probeSizes{recs: 1 << 18, blockOps: 1 << 12, cpuOps: 1 << 20, lookups: 1 << 12, inserts: 1 << 14}
	case reg.latency > 0:
		sz = probeSizes{recs: 1 << 15, blockOps: 64, cpuOps: 1 << 20, lookups: 128, inserts: 1 << 11}
	}
	if quick {
		sz = probeSizes{recs: max(sz.recs/16, 1<<12), blockOps: max(sz.blockOps/16, 32), cpuOps: sz.cpuOps / 16,
			lookups: max(sz.lookups/16, 64), inserts: max(sz.inserts/16, 512)}
	}
	return sz
}

// probeFailure carries an error out of the ladder; runProbes turns it back
// into an error.
type probeFailure struct{ err error }

func must(err error) {
	if err != nil {
		panic(probeFailure{err})
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

type prober struct {
	c      *runCtx
	rec    *recorder
	reg    regime
	disks  int
	shards int
	sz     probeSizes
	out    map[string]float64
	parent int
	sink   uint64
}

// runProbes runs the whole ladder and returns the per-layer values.
func runProbes(c *runCtx, rec *recorder, def *workloadDef) (out map[string]float64, err error) {
	p := &prober{c: c, rec: rec, reg: def.reg, disks: def.disks, shards: def.shards,
		sz: probeSizesFor(def.reg, c.opt.quick), out: map[string]float64{}}
	defer func() {
		if r := recover(); r != nil {
			pf, ok := r.(probeFailure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("probe: %w", pf.err)
		}
	}()
	p.layer("pdm", p.probePDM)
	p.layer("record", p.probeRecord)
	p.layer("stream", p.probeStream)
	p.layer("build", p.probeBuild) // extsort, btree bulk load, pipeline, then the tree's read side and the cache under it
	p.layer("cache", p.probeCache)
	p.layer("shard", p.probeShard)
	p.layer("index", p.probeGate)
	p.layer("buffertree", p.probeBufferTree)
	p.layer("store", p.probeStore)
	return p.out, nil
}

func (p *prober) layer(name string, fn func()) {
	id := p.rec.begin("probe."+name, 0)
	p.parent = id
	fn()
	p.rec.end(id)
}

// timed runs fn under a child span and returns its wall clock.
func (p *prober) timed(name string, fn func()) time.Duration {
	id := p.rec.begin(name, p.parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.rec.end(id)
	return d
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// volume opens a probe volume of the workload's regime and geometry.
func (p *prober) volume(memBlocks int) (*em.Volume, *em.Pool) {
	vol := must1(p.c.newVolume(p.reg, p.disks, memBlocks))
	return vol, em.PoolFor(vol)
}

func (p *prober) probePDM() {
	vol, pool := p.volume(64)
	defer closeVolume(vol)
	nb := p.sz.blockOps
	base := vol.Alloc(nb)
	fr := pool.MustAlloc()
	defer fr.Release()
	for i := range fr.Buf {
		fr.Buf[i] = byte(i)
	}
	order := rand.New(rand.NewSource(subSeed(p.c.opt.seed, 20))).Perm(nb)
	// One untimed pass so that timed writes overwrite existing blocks
	// instead of growing the backing store.
	for i := 0; i < nb; i++ {
		must(vol.WriteBlock(base+int64(i), fr.Buf))
	}
	p.out["pdm.write_block_ns"] = nsPer(p.timed("pdm.WriteBlock", func() {
		for _, i := range order {
			must(vol.WriteBlock(base+int64(i), fr.Buf))
		}
	}), nb)
	p.out["pdm.read_block_ns"] = nsPer(p.timed("pdm.ReadBlock", func() {
		for _, i := range order {
			must(vol.ReadBlock(base+int64(i), fr.Buf))
		}
	}), nb)

	group := 4 * p.disks
	frames := must1(pool.AllocN(group))
	defer pdm.ReleaseAll(frames)
	bufs := make([][]byte, group)
	for i, f := range frames {
		bufs[i] = f.Buf
	}
	addrs := make([]int64, group)
	groups := max(nb/group, 1)
	batch := func(do func([]int64, [][]byte) error) func() {
		return func() {
			for g := 0; g < groups; g++ {
				for i := range addrs {
					addrs[i] = base + int64((g*group+i)%nb)
				}
				must(do(addrs, bufs))
			}
		}
	}
	p.out["pdm.batch_write_ns_per_block"] = nsPer(p.timed("pdm.BatchWrite", batch(vol.BatchWrite)), groups*group)
	p.out["pdm.batch_read_ns_per_block"] = nsPer(p.timed("pdm.BatchRead", batch(vol.BatchRead)), groups*group)

	p.out["pdm.pool_alloc_release_ns"] = nsPer(p.timed("pdm.Pool.Alloc", func() {
		for i := 0; i < p.sz.cpuOps; i++ {
			pool.MustAlloc().Release()
		}
	}), p.sz.cpuOps)
}

func (p *prober) probeRecord() {
	var codec em.RecordCodec
	buf := make([]byte, blockBytes)
	per := blockBytes / codec.Size()
	reps := max(p.sz.cpuOps/per, 1)
	p.out["record.codec_ns_per_record"] = nsPer(p.timed("record.RecordCodec", func() {
		var sum uint64
		for r := 0; r < reps; r++ {
			for i := 0; i < per; i++ {
				codec.Encode(buf[i*16:], em.Record{Key: uint64(r + i), Val: sum})
			}
			for i := 0; i < per; i++ {
				sum += codec.Decode(buf[i*16:]).Key
			}
		}
		p.sink += sum
	}), reps*per)
}

func (p *prober) probeStream() {
	vol, pool := p.volume(64)
	defer closeVolume(vol)
	n := p.sz.recs
	write := func(w stream.Sink[em.Record]) func() {
		return func() {
			for i := 0; i < n; i++ {
				must(w.Append(em.Record{Key: uint64(i), Val: valOf(uint64(i))}))
			}
			must(w.Close())
		}
	}
	read := func(r stream.Source[em.Record]) func() {
		return func() {
			var sum uint64
			for {
				rec, ok, err := r.Next()
				must(err)
				if !ok {
					break
				}
				sum += rec.Val
			}
			r.Close()
			if sum != valSum(0, 1, uint64(n)) {
				must(errors.New("stream read back the wrong records"))
			}
		}
	}
	f := em.NewFile[em.Record](vol, em.RecordCodec{})
	p.out["stream.write_ns_per_record"] = nsPer(p.timed("stream.Writer", write(must1(stream.NewStripedWriter(f, pool, p.disks)))), n)
	p.out["stream.read_ns_per_record"] = nsPer(p.timed("stream.Reader", read(must1(stream.NewStripedReader(f, pool, p.disks)))), n)
	f.Release()
	f = em.NewFile[em.Record](vol, em.RecordCodec{})
	p.out["stream.async_write_ns_per_record"] = nsPer(p.timed("stream.AsyncWriter", write(must1(em.NewAsyncWriter(f, pool, p.disks)))), n)
	p.out["stream.prefetch_read_ns_per_record"] = nsPer(p.timed("stream.PrefetchReader", read(must1(em.NewPrefetchReader(f, pool, p.disks)))), n)
	f.Release()
}

// probeBuild walks the write side bottom-up on one input (sort, load, and
// the pipelined sort-and-load that SortIndex is), then the read side of the
// tree it built.
func (p *prober) probeBuild() {
	n := p.sz.recs
	// An eighth of the input, as on the build workloads, but never so
	// little that the loader's reservation leaves the sort nothing.
	vol, pool := p.volume(max(n/256/8, 96))
	defer closeVolume(vol)
	input, keys, sum, err := writeRecords(vol, pool, subSeed(p.c.opt.seed, 21), n)
	must(err)
	less := func(a, b em.Record) bool { return a.Key < b.Key }
	sortOpts := &em.SortOptions{Width: p.disks, Async: true}

	var merged *em.File[em.Record]
	p.out["extsort.mergesort_ns_per_record"] = nsPer(p.timed("extsort.MergeSort", func() {
		merged = must1(em.MergeSort(input, pool, less, sortOpts))
	}), n)
	merged.Release()
	var sorted *em.File[em.Record]
	s0 := statsOf(vol)
	sortWall := p.timed("extsort.DistributionSort", func() {
		sorted = must1(em.DistributionSort(input, pool, less, sortOpts))
	})
	p.out["extsort.distsort_ns_per_record"] = nsPer(sortWall, n)
	p.out["extsort.ios_per_record"] = delta(s0, statsOf(vol)).ios() / float64(n)

	var tree *em.BTree
	s0 = statsOf(vol)
	loadWall := p.timed("btree.BulkLoad", func() {
		tree = must1(em.BulkLoadBTreeWith(vol, pool, 8, sorted,
			&em.BulkLoadOptions{Width: p.disks, Async: true, WriteBehind: true}))
		must(tree.Rehome(pool, 48))
	})
	p.out["btree.bulkload_ns_per_record"] = nsPer(loadWall, n)
	p.out["btree.bulkload_writes_per_krecord"] = float64(delta(s0, statsOf(vol)).writes) / (float64(n) / 1000)
	sorted.Release()

	opts := sortIndexOpts
	opts.Width = p.disks
	var piped *em.BTree
	pipeWall := p.timed("pipeline.SortIndex", func() { piped = must1(em.SortIndex(input, pool, &opts)) })
	p.out["pipeline.overlap_ratio"] = pipeWall.Seconds() / (sortWall + loadWall).Seconds()
	must(piped.Release())
	input.Release()

	p.probeTree(vol, pool, tree, keys, sum)
	must(tree.Release())
	p.probeInsert(vol, pool)
}

// probeTree times the read side of one tree through a session, whose cache
// counters are the cache layer's share of the same lookups.
func (p *prober) probeTree(vol *em.Volume, pool *em.Pool, tree *em.BTree, keys []uint64, sum uint64) {
	must(tree.Warm())
	sess := must1(tree.NewSessionOn(pool, 48, p.disks))
	defer sess.Close()
	mix := newKeyMix(subSeed(p.c.opt.seed, 22), uint64(len(keys)))
	gets := make([]uint64, p.sz.lookups)
	for i := range gets {
		gets[i] = keys[mix.pos(i)]
	}
	reqs := max(p.sz.lookups/batchKeys, 8)
	batch := make([]uint64, reqs*batchKeys)
	for r := 0; r < reqs; r++ {
		for j := 0; j < batchKeys; j++ {
			batch[r*batchKeys+j] = keys[mix.pos(r)]
		}
	}
	p.out["btree.height"] = float64(tree.Height())
	p.out["btree.get_ns"] = nsPer(p.timed("btree.Get", func() {
		for _, k := range gets {
			v, ok, err := sess.Get(k)
			must(err)
			if !ok || v != valOf(k) {
				must(fmt.Errorf("btree.Get(%d) = (%d, %v)", k, v, ok))
			}
		}
	}), len(gets))
	s0 := statsOf(vol)
	p.out["btree.getbatch_ns_per_key"] = nsPer(p.timed("btree.GetBatch", func() {
		for i := 0; i < len(batch); i += batchKeys {
			vals, found, err := sess.GetBatch(batch[i : i+batchKeys])
			must(err)
			for j, k := range batch[i : i+batchKeys] {
				if !found[j] || vals[j] != valOf(k) {
					must(fmt.Errorf("btree.GetBatch key %d = (%d, %v)", k, vals[j], found[j]))
				}
			}
		}
	}), len(batch))
	p.out["btree.reads_per_key"] = float64(delta(s0, statsOf(vol)).reads) / float64(len(batch))
	cs := sess.CacheStats()
	p.out["cache.hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	p.out["cache.evictions"] = float64(cs.Evictions)
	p.out["cache.writebacks"] = float64(cs.WriteBack)

	s0 = statsOf(vol)
	var n uint64
	var why string
	scanWall := p.timed("btree.Scan", func() {
		n, why = drainScan(tree, scanRange{lo: 0, hi: ^uint64(0), count: uint64(len(keys)), sum: sum})
	})
	if why != "" {
		must(errors.New("btree.Scan: " + why))
	}
	p.out["btree.scan_ns_per_record"] = nsPer(scanWall, int(n))
	p.out["btree.scan_reads_per_krecord"] = float64(delta(s0, statsOf(vol)).reads) / (float64(n) / 1000)
}

func (p *prober) probeInsert(vol *em.Volume, pool *em.Pool) {
	tree := must1(em.NewBTree(vol, pool, 48))
	base := uint64(subSeed(p.c.opt.seed, 23))
	p.out["btree.insert_ns"] = nsPer(p.timed("btree.Insert", func() {
		for i := 0; i < p.sz.inserts; i++ {
			k := mix64(base + uint64(i))
			must1(tree.Insert(k, valOf(k)))
		}
	}), p.sz.inserts)
	must(tree.Release())
}

func (p *prober) probeCache() {
	vol, pool := p.volume(128)
	defer closeVolume(vol)
	const capacity = 64
	nb := 4 * capacity
	base := vol.Alloc(nb)
	fr := pool.MustAlloc()
	for i := 0; i < nb; i++ {
		must(vol.WriteBlock(base+int64(i), fr.Buf))
	}
	fr.Release()
	c := must1(cache.New(vol, pool, capacity))
	touch := func(n, span int) func() {
		return func() {
			for i := 0; i < n; i++ {
				pg := must1(c.Get(base + int64(i%span)))
				c.Unpin(pg)
			}
		}
	}
	touch(capacity/2, capacity/2)() // make the hit set resident
	p.out["cache.get_hit_ns"] = nsPer(p.timed("cache.Get.hit", touch(p.sz.cpuOps, capacity/2)), p.sz.cpuOps)
	// Cycling over four times the capacity defeats LRU: every Get misses
	// and evicts.
	p.out["cache.get_miss_ns"] = nsPer(p.timed("cache.Get.miss", touch(p.sz.blockOps, nb)), p.sz.blockOps)
	must(c.Close())
}

// shardProbeFrames is each probe shard's cache: small enough that the probe's
// trees, which are small where a block costs 2 ms, still miss on leaves.
const shardProbeFrames = 8

func (p *prober) probeShard() {
	s, n := p.shards, p.sz.recs
	vols := make([]*em.Volume, s)
	trees := make([]*em.BTree, s)
	splits := make([]uint64, s-1)
	for i := range vols {
		var pool *em.Pool
		vols[i], pool = p.volume(256)
		defer closeVolume(vols[i])
		lo, hi := shardRange(i, s, n)
		tr, _, _, err := loadShard(vols[i], pool, lo, hi, shardProbeFrames)
		must(err)
		trees[i] = tr
		if i < s-1 {
			splits[i] = hi + 1
		}
	}
	idx := must1(em.NewShardedTree(trees, &em.ShardedTreeOptions{Splits: splits}))
	must(idx.Warm())

	// Fan-out: the same kind of batch answered by the facade, and by its
	// shards one after another on the sub-batches the facade would cut.
	// Each side gets its own seeded batches so neither reads leaves the
	// other just cached.
	mix := newKeyMix(subSeed(p.c.opt.seed, 24), uint64(n))
	reqs := max(p.sz.lookups/batchKeys, 8)
	draw := func() []uint64 {
		keys := make([]uint64, batchKeys)
		for j := range keys {
			keys[j] = mix.uniform() + 1
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		return keys
	}
	var fanned, serial time.Duration
	for r := 0; r < reqs; r++ {
		keys := draw()
		fanned += p.timed("shard.GetBatch", func() { must(checkFound(idx.GetBatch(keys))) })
		keys = draw()
		serial += p.timed("btree.GetBatch", func() {
			for lo := 0; lo < len(keys); {
				sh := idx.Owner(keys[lo])
				hi := lo
				for hi < len(keys) && idx.Owner(keys[hi]) == sh {
					hi++
				}
				must(checkFound(idx.Shard(sh).GetBatch(keys[lo:hi])))
				lo = hi
			}
		})
	}
	p.out["shard.fanout_speedup"] = serial.Seconds() / fanned.Seconds()

	// Scans: each shard's range on its own tree, then the whole range
	// through the stitching scanner; the ratio is 1 while the facade drains
	// one shard at a time.
	var parts time.Duration
	for i, tr := range trees {
		lo, hi := shardRange(i, s, n)
		part := scanRange{lo: lo, hi: hi, count: hi - lo + 1, sum: valSum(lo, 1, hi-lo+1)}
		parts += p.timed("btree.Scan", func() {
			if _, why := drainScan(tr, part); why != "" {
				must(errors.New("btree.Scan: " + why))
			}
		})
	}
	whole := scanRange{lo: 1, hi: uint64(n), count: uint64(n), sum: valSum(1, 1, uint64(n))}
	stitched := p.timed("shard.Scan", func() {
		if _, why := drainScan(idx, whole); why != "" {
			must(errors.New("shard.Scan: " + why))
		}
	})
	p.out["shard.scan_speedup"] = parts.Seconds() / stitched.Seconds()

	opens := max(p.sz.lookups/16, 16)
	p.out["shard.session_open_us"] = nsPer(p.timed("shard.NewSession", func() {
		for i := 0; i < opens; i++ {
			must(must1(idx.NewSession(shardProbeFrames, 0)).Close())
		}
	}), opens) / 1e3
	for _, tr := range trees {
		must(tr.Release())
	}
}

func checkFound(_ []uint64, found []bool, err error) error {
	if err != nil {
		return err
	}
	for _, ok := range found {
		if !ok {
			return errors.New("a present key was not found")
		}
	}
	return nil
}

func (p *prober) probeGate() {
	pool := pdm.NewPool(blockBytes, 4)
	gate := index.NewGate(pool, 4, 10*time.Millisecond)
	noop := func() error { return nil }
	loop := func(g *index.Gate) func() {
		return func() {
			for i := 0; i < p.sz.cpuOps; i++ {
				must(g.Do(noop))
			}
		}
	}
	on := p.timed("index.Gate.Do", loop(gate))
	off := p.timed("index.Gate.Do.nil", loop(nil))
	p.out["index.gate_pass_ns"] = nsPer(on-off, p.sz.cpuOps)

	// One request parked on a starved pool: how long after the frame comes
	// back does the request return?
	starved := pdm.NewPool(blockBytes, 1)
	gate = index.NewGate(starved, 4, time.Second)
	var wakes []float64
	for i := 0; i < 21; i++ {
		held := starved.MustAlloc()
		done := make(chan error, 1)
		go func() {
			done <- gate.Do(func() error {
				fr, err := starved.Alloc()
				if err == nil {
					fr.Release()
				}
				return err
			})
		}()
		time.Sleep(2 * time.Millisecond) // let it find the pool empty and park
		t0 := time.Now()
		held.Release()
		must(<-done)
		wakes = append(wakes, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	p.out["index.gate_park_wake_us"] = median(wakes)
}

func (p *prober) probeBufferTree() {
	vol, pool := p.volume(128)
	defer closeVolume(vol)
	// The shape a store gives its write front.
	bt := must1(em.NewBufferTree(vol, pool, em.BufferTreeConfig{Fanout: 8, BufferRecords: 4 * (blockBytes / 24)}))
	n := p.sz.inserts
	base := uint64(subSeed(p.c.opt.seed, 25))
	s0 := statsOf(vol)
	p.out["buffertree.insert_ns_per_op"] = nsPer(p.timed("buffertree.Insert", func() {
		for i := 0; i < n; i++ {
			k := mix64(base + uint64(i))
			must(bt.Insert(k, valOf(k)))
		}
	}), n)
	var run *buffertree.Run
	p.out["buffertree.seal_ns_per_op"] = nsPer(p.timed("buffertree.SealOps", func() { run = must1(bt.SealOps()) }), n)
	p.out["buffertree.ios_per_kop"] = delta(s0, statsOf(vol)).ios() / (float64(n) / 1000)
	run.Release()
	bt.ReleaseBuffers()
}

func (p *prober) probeStore() {
	vol, pool := p.volume(256)
	defer closeVolume(vol)
	front := p.sz.inserts / 4
	st := must1(em.OpenStore(vol, pool, em.StoreConfig{FrontOps: int64(front), CacheFrames: 32}))
	base := uint64(p.sz.inserts) // preloaded keys 2, 4, .., 2*base
	for j := uint64(0); j < base; j++ {
		must(st.Insert(preKey(j), valOf(preKey(j))))
	}
	must(st.Drain())
	rng := rand.New(rand.NewSource(subSeed(p.c.opt.seed, 26)))
	gets := func(name string, during func() bool) float64 {
		var n int
		d := p.timed(name, func() {
			for n < p.sz.lookups && during() {
				k := preKey(uint64(rng.Int63n(int64(base))))
				v, ok, err := st.Get(k)
				must(err)
				if !ok || v != valOf(k) {
					must(fmt.Errorf("store.Get(%d) = (%d, %v)", k, v, ok))
				}
				n++
			}
		})
		return nsPer(d, max(n, 1))
	}
	always := func() bool { return true }
	p.out["store.get_quiesced_ns"] = gets("store.Get", always)

	// Fill the front to one short of the seal threshold, timing each call.
	lat := make([]int64, 0, front)
	fill := func(round uint64) {
		for i := 0; i < front-1; i++ {
			k := churnKey((round*uint64(front) + uint64(i)) % base)
			t0 := time.Now()
			must(st.Insert(k, valOf(k)))
			lat = append(lat, int64(time.Since(t0)))
		}
	}
	id := p.rec.begin("store.Insert", p.parent)
	fill(0)
	p.rec.end(id)
	insertLayer(p.out, lat)

	scans := max(p.sz.lookups/64, 4)
	var scanned uint64
	scanWall := p.timed("store.Scan", func() {
		for i := 0; i < scans; i++ {
			a := preKey(uint64(rng.Int63n(int64(base - 256))))
			n, why := drainScan(st, scanRange{lo: a, hi: a + 2*255, count: 256, sum: valSum(a, 2, 256), evenSum: true})
			if why != "" {
				must(errors.New("store.Scan: " + why))
			}
			scanned += n
		}
	})
	p.out["store.overlay_scan_ns_per_record"] = nsPer(scanWall, int(scanned))

	s0 := statsOf(vol)
	p.out["store.drain_ms"] = p.timed("store.Drain", func() { must(st.Drain()) }).Seconds() * 1e3
	p.out["store.drain_write_ios_per_op"] = float64(delta(s0, statsOf(vol)).writes) / float64(front-1)

	fill(1)
	st.StartDrain()
	p.out["store.get_in_drain_ns"] = gets("store.Get.draining", st.Draining)
	must(st.Drain())
	p.out["store.drains"] = float64(st.Drains())
	p.out["store.epoch"] = float64(st.Epoch())
	must(st.Close())
}
