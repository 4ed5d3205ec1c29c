package main

import (
	"time"

	"em"
)

// buildCfg shapes build-cpu and build-file: one volume, a pool far smaller
// than the input, em.SortIndex with every overlap mode on.
type buildCfg struct {
	reg       regime
	n         int // records; a power of two
	disks     int
	memBlocks int
	scans     int // full verifying scans of each built tree
	batches   int // GetBatch requests against each built tree
	gets      int // Get requests against each built tree
}

var sortIndexOpts = em.SortIndexOptions{Width: 4, Async: true, WriteBehind: true, Pipeline: true}

type buildInst struct {
	c     *runCtx
	cfg   buildCfg
	vol   *em.Volume
	pool  *em.Pool
	keys  []uint64 // the input's keys, in input order
	sum   uint64   // sum of their values
	input *em.File[em.Record]
}

// writeRecords writes n seeded distinct random records to a new file on vol
// and returns it with the keys and the sum of the values.
func writeRecords(vol *em.Volume, pool *em.Pool, seed int64, n int) (*em.File[em.Record], []uint64, uint64, error) {
	f := em.NewFile[em.Record](vol, em.RecordCodec{})
	w, err := em.NewAsyncWriter(f, pool, vol.Disks())
	if err != nil {
		return nil, nil, 0, err
	}
	keys := make([]uint64, n)
	var sum uint64
	base := uint64(seed)
	for i := range keys {
		// mix64 is one to one, so the keys are distinct.
		k := mix64(base + uint64(i))
		keys[i] = k
		sum += valOf(k)
		if err := w.Append(em.Record{Key: k, Val: valOf(k)}); err != nil {
			w.Close()
			f.Release()
			return nil, nil, 0, err
		}
	}
	if err := w.Close(); err != nil {
		f.Release()
		return nil, nil, 0, err
	}
	return f, keys, sum, nil
}

// buildWorkload is a build-* workload of the given shape. Its probes copy the
// volume's disks; the shard probe, which no build uses, gets two shards.
func buildWorkload(name string, at10 int, cfg buildCfg) *workloadDef {
	return &workloadDef{name: name, reg: cfg.reg, disks: cfg.disks, shards: 2, at10: at10, setups: 3, setup: setupBuild(cfg)}
}

func setupBuild(cfg buildCfg) func(c *runCtx) (instance, map[string]float64, error) {
	return func(c *runCtx) (instance, map[string]float64, error) {
		cfg := cfg
		cfg.n = c.scale(cfg.n)
		cfg.batches = c.requests(cfg.batches)
		cfg.gets = c.requests(cfg.gets)
		vol, err := c.newVolume(cfg.reg, cfg.disks, cfg.memBlocks)
		if err != nil {
			return nil, nil, err
		}
		b := &buildInst{c: c, cfg: cfg, vol: vol, pool: em.PoolFor(vol)}
		b.input, b.keys, b.sum, err = writeRecords(vol, b.pool, subSeed(c.opt.seed, 1), cfg.n)
		if err != nil {
			closeVolume(vol)
			return nil, nil, err
		}
		// One untimed build of a quarter of the input grows the heap and
		// the backend's block table before anything is measured.
		warm, _, _, err := writeRecords(vol, b.pool, subSeed(c.opt.seed, 2), cfg.n/4)
		if err == nil {
			var tr *em.BTree
			if tr, err = em.SortIndex(warm, b.pool, &sortIndexOpts); err == nil {
				err = tr.Release()
			}
			warm.Release()
		}
		if err != nil {
			closeVolume(vol)
			return nil, nil, err
		}
		return b, nil, nil
	}
}

func (b *buildInst) pass(p int, rec *recorder) passResult {
	c, cfg := b.c, b.cfg
	tr := rec.client(0, 1+cfg.scans+cfg.batches+cfg.gets)
	defer tr.flush()
	n := float64(cfg.n)
	pr := passResult{vals: map[string]float64{}, ops: n, layer: map[string]float64{}}

	var tree *em.BTree
	var err error
	s0 := statsOf(b.vol)
	buildWall := runClients(1, func(int) {
		t0 := time.Now()
		tree, err = em.SortIndex(b.input, b.pool, &sortIndexOpts)
		tr.request("req.build", int64(p), t0, time.Now())
	})
	pr.io = delta(s0, statsOf(b.vol))
	if err != nil {
		c.tally.fail("SortIndex: %v", err)
		return pr
	}
	c.tally.check(tree.Len() == int64(cfg.n), "SortIndex indexed %d of %d records", tree.Len(), cfg.n)
	pr.vals["records_per_s"] = perSecond(n, buildWall)
	pr.vals["ios_per_op"] = pr.io.ios() / n
	pr.vals["steps_per_op"] = float64(pr.io.steps) / n
	pr.vals["write_ios_per_insert"] = float64(pr.io.writes) / n
	// The index's own blocks: everything live but the harness's input.
	pr.vals["space_blocks_per_krecord"] = float64(liveBlocks(b.vol)-int64(b.input.Blocks())) / (n / 1000)

	// The built tree is then read back three ways, which both checks it
	// and gives the read-side metrics in this regime.
	mix := newKeyMix(subSeed(c.opt.seed, 3, uint64(p)), uint64(cfg.n))
	keys := make([]uint64, cfg.batches*batchKeys)
	for r := 0; r < cfg.batches; r++ {
		for j := 0; j < batchKeys; j++ {
			keys[r*batchKeys+j] = b.keys[mix.pos(r)]
		}
	}
	gkeys := make([]uint64, cfg.gets)
	for i := range gkeys {
		gkeys[i] = b.keys[mix.pos(i)]
	}
	var cs clientStats
	all := scanRange{lo: 0, hi: ^uint64(0), count: uint64(cfg.n), sum: b.sum}
	scanWall := runClients(1, func(int) {
		for i := 0; i < cfg.scans; i++ {
			c.scanOne(tree, all, int64(i), tr, &cs)
		}
	})
	batchWall := runClients(1, func(int) { c.batchLoop(tree, keys, tr, &cs) })
	getWall := runClients(1, func(int) { c.getLoop(tree, gkeys, cfg.reg.getGroup(), tr, &cs) })
	pr.vals["ops_per_s"] = perSecond(n, buildWall+scanWall+batchWall+getWall)
	pr.vals["scan_records_per_s"] = perSecond(float64(cs.scanned), scanWall)
	pr.vals["keys_per_s"] = perSecond(float64(len(keys)), batchWall)
	pr.batchNs, pr.getNs = cs.batchNs, cs.getNs

	if err := tree.Release(); err != nil {
		c.tally.fail("Release: %v", err)
	}
	c.tally.check(b.pool.Free() == b.pool.Capacity(), "pool has %d of %d frames free after the tree is released", b.pool.Free(), b.pool.Capacity())
	c.tally.check(liveBlocks(b.vol) == int64(b.input.Blocks()), "%d blocks live after the tree is released, want the input's %d", liveBlocks(b.vol), b.input.Blocks())
	return pr
}

func (b *buildInst) finish() map[string]float64 {
	b.input.Release()
	b.c.tally.check(liveBlocks(b.vol) == 0, "%d blocks live after the input is released", liveBlocks(b.vol))
	if err := closeVolume(b.vol); err != nil {
		b.c.tally.fail("close volume: %v", err)
	}
	return nil
}
