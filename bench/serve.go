package main

import (
	"math/rand"
	"sync"
	"time"

	"em"
)

// serveCfg shapes serve-cpu and serve-model: a read-only em.ShardedTree over
// keys 1..n, clients with one session each, and the same three-phase request
// script in both regimes.
type serveCfg struct {
	reg       regime
	shards    int
	disks     int
	memBlocks int
	n         int // keys; a power of two
	frames    int // cache frames of each tree and of each session, per shard
	clients   int // point-phase clients; scans use one
	batches   int // GetBatch requests per client per pass
	gets      int // Get requests per client per pass
	scans     int // scans per pass, each over n/2 consecutive keys
}

type serveInst struct {
	c        *runCtx
	cfg      serveCfg
	vols     []*em.Volume
	pools    []*em.Pool
	trees    []*em.BTree
	idx      *em.ShardedTree
	sessions []em.Session
	freeOpen []int // each pool's free frames before the sessions opened
}

// shardRange returns the keys shard i of s owns when 1..n is cut evenly.
func shardRange(i, s, n int) (lo, hi uint64) {
	return uint64(i*n/s + 1), uint64((i + 1) * n / s)
}

// loadShard writes the shard's records in key order and bulk-loads them with
// the write-behind loader, leaving the tree in the serving posture
// (construction cache replaced by a clean one).
func loadShard(vol *em.Volume, pool *em.Pool, lo, hi uint64, frames int) (tr *em.BTree, load time.Duration, writes uint64, err error) {
	f := em.NewFile[em.Record](vol, em.RecordCodec{})
	w, err := em.NewAsyncWriter(f, pool, vol.Disks())
	if err != nil {
		return nil, 0, 0, err
	}
	for k := lo; k <= hi && err == nil; k++ {
		err = w.Append(em.Record{Key: k, Val: valOf(k)})
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		f.Release()
		return nil, 0, 0, err
	}
	w0, t0 := vol.Stats().Snapshot().Writes, time.Now()
	tr, err = em.BulkLoadBTreeWith(vol, pool, frames, f,
		&em.BulkLoadOptions{Width: vol.Disks(), Async: true, WriteBehind: true})
	f.Release()
	if err != nil {
		return nil, 0, 0, err
	}
	if err := tr.Rehome(pool, frames); err != nil {
		return nil, 0, 0, err
	}
	return tr, time.Since(t0), vol.Stats().Snapshot().Writes - w0, nil
}

func serveWorkload(name string, at10, setups int, cfg serveCfg) *workloadDef {
	return &workloadDef{name: name, reg: cfg.reg, disks: cfg.disks, shards: cfg.shards, at10: at10, setups: setups, setup: setupServe(cfg)}
}

func setupServe(cfg serveCfg) func(c *runCtx) (instance, map[string]float64, error) {
	return func(c *runCtx) (instance, map[string]float64, error) {
		cfg := cfg
		cfg.n = c.scale(cfg.n)
		cfg.batches, cfg.gets = max(c.requests(cfg.batches), 10), max(c.requests(cfg.gets), 10)
		cfg.scans = max(c.requests(cfg.scans), 2)
		s := &serveInst{c: c, cfg: cfg}
		fail := func(err error) (instance, map[string]float64, error) {
			s.close()
			return nil, nil, err
		}
		for i := 0; i < cfg.shards; i++ {
			vol, err := c.newVolume(cfg.reg, cfg.disks, cfg.memBlocks)
			if err != nil {
				return fail(err)
			}
			s.vols = append(s.vols, vol)
			s.pools = append(s.pools, em.PoolFor(vol))
		}
		// Shards load concurrently, each on its own volume.
		s.trees = make([]*em.BTree, cfg.shards)
		loads := make([]time.Duration, cfg.shards)
		writes := make([]uint64, cfg.shards)
		errs := make([]error, cfg.shards)
		var wg sync.WaitGroup
		for i := range s.trees {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lo, hi := shardRange(i, cfg.shards, cfg.n)
				s.trees[i], loads[i], writes[i], errs[i] = loadShard(s.vols[i], s.pools[i], lo, hi, cfg.frames)
			}(i)
		}
		wg.Wait()
		var load time.Duration
		var written uint64
		for i, err := range errs {
			if err != nil {
				return fail(err)
			}
			load = max(load, loads[i])
			written += writes[i]
		}
		splits := make([]uint64, cfg.shards-1)
		for i := range splits {
			_, hi := shardRange(i, cfg.shards, cfg.n)
			splits[i] = hi + 1
		}
		var err error
		if s.idx, err = em.NewShardedTree(s.trees, &em.ShardedTreeOptions{Splits: splits}); err != nil {
			return fail(err)
		}
		if err := s.idx.Warm(); err != nil {
			return fail(err)
		}
		for _, p := range s.pools {
			s.freeOpen = append(s.freeOpen, p.Free())
		}
		for cl := 0; cl < cfg.clients; cl++ {
			sess, err := s.idx.NewSession(cfg.frames, 0)
			if err != nil {
				return fail(err)
			}
			s.sessions = append(s.sessions, sess)
		}
		n := float64(cfg.n)
		// The bulk load is the only time this workload writes: its rate,
		// its writes per record and the space it leaves are reported from
		// here.
		return s, map[string]float64{
			"records_per_s":            perSecond(n, load),
			"write_ios_per_insert":     float64(written) / n,
			"space_blocks_per_krecord": float64(liveBlocks(s.vols...)) / (n / 1000),
		}, nil
	}
}

func (s *serveInst) pass(p int, rec *recorder) passResult {
	c, cfg := s.c, s.cfg
	pr := passResult{vals: map[string]float64{}, layer: map[string]float64{}}
	cs := make([]clientStats, cfg.clients)
	trs := make([]*clientTrace, cfg.clients)
	bkeys := make([][]uint64, cfg.clients)
	gkeys := make([][]uint64, cfg.clients)
	for cl := range cs {
		trs[cl] = rec.client(cl, cfg.batches+cfg.gets+cfg.scans)
		mix := newKeyMix(subSeed(c.opt.seed, 4, uint64(p), uint64(cl)), uint64(cfg.n))
		bkeys[cl] = make([]uint64, cfg.batches*batchKeys)
		for r := 0; r < cfg.batches; r++ {
			for j := 0; j < batchKeys; j++ {
				bkeys[cl][r*batchKeys+j] = mix.pos(r) + 1
			}
		}
		gkeys[cl] = make([]uint64, cfg.gets)
		for i := range gkeys[cl] {
			gkeys[cl][i] = mix.pos(i) + 1
		}
	}
	rng := rand.New(rand.NewSource(subSeed(c.opt.seed, 5, uint64(p))))
	span := uint64(cfg.n / 2)
	ranges := make([]scanRange, cfg.scans)
	for i := range ranges {
		lo := 1 + uint64(rng.Int63n(int64(uint64(cfg.n)-span+1)))
		ranges[i] = scanRange{lo: lo, hi: lo + span - 1, count: span, sum: valSum(lo, 1, span)}
	}

	s0 := statsOf(s.vols...)
	pointWall := runClients(cfg.clients, func(cl int) { c.batchLoop(s.sessions[cl], bkeys[cl], trs[cl], &cs[cl]) })
	pr.io = delta(s0, statsOf(s.vols...))
	getWall := runClients(cfg.clients, func(cl int) { c.getLoop(s.sessions[cl], gkeys[cl], cfg.reg.getGroup(), trs[cl], &cs[cl]) })
	scanWall := runClients(1, func(int) {
		for i, r := range ranges {
			c.scanOne(s.idx, r, int64(i), trs[0], &cs[0])
		}
	})
	for _, tr := range trs {
		tr.flush()
	}

	all := merge(cs)
	pr.batchNs, pr.getNs = all.batchNs, all.getNs
	keys := float64(cfg.clients * cfg.batches * batchKeys)
	pr.ops = keys
	pr.vals["keys_per_s"] = perSecond(keys, pointWall)
	pr.vals["ops_per_s"] = perSecond(keys, pointWall+getWall+scanWall)
	pr.vals["ios_per_op"] = pr.io.ios() / keys
	pr.vals["steps_per_op"] = float64(pr.io.steps) / keys
	pr.vals["scan_records_per_s"] = perSecond(float64(all.scanned), scanWall)
	return pr
}

func (s *serveInst) finish() map[string]float64 {
	c := s.c
	for _, sess := range s.sessions {
		if err := sess.Close(); err != nil {
			c.tally.fail("close session: %v", err)
		}
	}
	s.sessions = nil
	for i, p := range s.pools {
		c.tally.check(p.Free() == s.freeOpen[i], "shard %d pool has %d frames free after sessions and scanners closed, had %d", i, p.Free(), s.freeOpen[i])
	}
	for i, tr := range s.trees {
		if err := tr.Release(); err != nil {
			c.tally.fail("release shard %d: %v", i, err)
		}
		c.tally.check(s.pools[i].Free() == s.pools[i].Capacity(), "shard %d pool has %d of %d frames free after release", i, s.pools[i].Free(), s.pools[i].Capacity())
	}
	s.trees = nil
	c.tally.check(liveBlocks(s.vols...) == 0, "%d blocks live after every shard is released", liveBlocks(s.vols...))
	s.close()
	return nil
}

// close releases what a failed or finished set-up still holds.
func (s *serveInst) close() {
	for _, sess := range s.sessions {
		sess.Close()
	}
	for _, tr := range s.trees {
		if tr != nil {
			tr.Close()
		}
	}
	for _, v := range s.vols {
		closeVolume(v)
	}
	s.vols = nil
}
