package main

import (
	"fmt"
	"math/rand"
	"time"

	"em"
)

// storeCfg shapes store-file: an em.ShardedStore on file-backed volumes that
// is written and read at once. Keys 2, 4, .., 2n are preloaded and only ever
// read; the odd keys between them are inserted and deleted during the run,
// so every shard sees every kind of operation and every range scan crosses
// fresh writes.
type storeCfg struct {
	reg       regime
	shards    int
	disks     int
	memBlocks int
	n         int   // preloaded keys; a power of two
	frontOps  int64 // per shard: the front seals and drains at this many ops
	frames    int
	clients   int
	ops       int // operations per pass, all clients together
	scanKeys  int // preloaded keys covered by one scan
}

// Operation mix, in parts per thousand.
const (
	mixInsert = 450
	mixDelete = 50
	mixGet    = 475
	mixBatch  = 20
	mixScan   = 5
)

const (
	opInsert = iota
	opDelete
	opGet
	opBatch
	opScan
)

type storeOp struct {
	kind uint8
	key  uint64 // the key; for opScan, the first preloaded key of the range
}

func preKey(j uint64) uint64   { return 2 * (j + 1) }
func churnKey(j uint64) uint64 { return 2*j + 1 }

type storeInst struct {
	c       *runCtx
	cfg     storeCfg
	vols    []*em.Volume
	pools   []*em.Pool
	st      *em.ShardedStore
	present [][]bool // per client: which of the churn keys it owns are live
	live    int64    // live churn keys, all clients
}

func storeWorkload(name string, at10 int, cfg storeCfg) *workloadDef {
	return &workloadDef{name: name, reg: cfg.reg, disks: cfg.disks, shards: cfg.shards, at10: at10, setups: 7, setup: setupStore(cfg)}
}

func setupStore(cfg storeCfg) func(c *runCtx) (instance, map[string]float64, error) {
	return func(c *runCtx) (instance, map[string]float64, error) {
		cfg := cfg
		cfg.n = c.scale(cfg.n)
		cfg.ops = c.requests(cfg.ops)
		cfg.frontOps = int64(c.scale(int(cfg.frontOps)))
		s := &storeInst{c: c, cfg: cfg}
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
		splits := make([]uint64, cfg.shards-1)
		for i := range splits {
			splits[i] = uint64((i+1)*2*cfg.n/cfg.shards) + 1
		}
		var err error
		s.st, err = em.OpenShardedStore(s.vols, s.pools, &em.ShardedStoreOptions{
			Splits: splits,
			Store:  em.StoreConfig{FrontOps: cfg.frontOps, CacheFrames: cfg.frames},
		})
		if err != nil {
			return fail(err)
		}
		// Preload through the write path, in seeded random order: the load
		// rate is reported from here. A store does not hold writers back
		// while it drains, so how many drains (each a rebuild of the whole
		// generation) a free-running load pays for depends on how the host
		// schedules them, and its time is bimodal. Hence rounds: each fills
		// every shard's front to about three quarters of its threshold, so
		// no shard seals on its own, and then drains. The work is then the
		// same on every run.
		order := rand.New(rand.NewSource(subSeed(c.opt.seed, 6))).Perm(cfg.n)
		round := int(cfg.frontOps) * cfg.shards * 3 / 4
		t0 := time.Now()
		for len(order) > 0 {
			m := min(round, len(order))
			for _, j := range order[:m] {
				k := preKey(uint64(j))
				if err := s.st.Insert(k, valOf(k)); err != nil {
					return fail(err)
				}
			}
			order = order[m:]
			if err := s.st.Drain(); err != nil {
				return fail(err)
			}
		}
		load := time.Since(t0)
		s.present = make([][]bool, cfg.clients)
		for cl := range s.present {
			s.present[cl] = make([]bool, cfg.n)
		}
		return s, map[string]float64{"records_per_s": perSecond(float64(cfg.n), load)}, nil
	}
}

// script generates client cl's operations for pass p.
func (s *storeInst) script(p, cl int) ([]storeOp, []uint64) {
	cfg := s.cfg
	seed := subSeed(s.c.opt.seed, 7, uint64(p), uint64(cl))
	rng := rand.New(rand.NewSource(seed))
	mix := newKeyMix(seed+1, uint64(cfg.n))
	ops := make([]storeOp, cfg.ops/cfg.clients)
	var batch []uint64
	owned := uint64(cfg.n / cfg.clients)
	gets := 0
	for i := range ops {
		switch u := rng.Intn(1000); {
		case u < mixInsert+mixDelete:
			kind := uint8(opInsert)
			if u >= mixInsert {
				kind = opDelete
			}
			j := uint64(rng.Int63n(int64(owned)))*uint64(cfg.clients) + uint64(cl)
			ops[i] = storeOp{kind, churnKey(j)}
		case u < mixInsert+mixDelete+mixGet:
			ops[i] = storeOp{opGet, preKey(mix.pos(gets))}
			gets++
		case u < mixInsert+mixDelete+mixGet+mixBatch:
			ops[i] = storeOp{kind: opBatch}
			for j := 0; j < batchKeys; j++ {
				batch = append(batch, preKey(mix.pos(gets)))
			}
			gets++
		default:
			a := uint64(rng.Intn(cfg.n - cfg.scanKeys + 1))
			ops[i] = storeOp{opScan, preKey(a)}
		}
	}
	return ops, batch
}

func (s *storeInst) pass(p int, rec *recorder) passResult {
	c, cfg := s.c, s.cfg
	pr := passResult{vals: map[string]float64{}, layer: map[string]float64{}}
	cs := make([]clientStats, cfg.clients)
	trs := make([]*clientTrace, cfg.clients)
	scripts := make([][]storeOp, cfg.clients)
	batches := make([][]uint64, cfg.clients)
	for cl := range scripts {
		scripts[cl], batches[cl] = s.script(p, cl)
		trs[cl] = rec.client(cl, len(scripts[cl]))
	}
	drains0 := s.st.Drains()
	writesOps := make([]int64, cfg.clients)
	s0, t0 := statsOf(s.vols...), time.Now()
	runClients(cfg.clients, func(cl int) { writesOps[cl] = s.client(cl, scripts[cl], batches[cl], trs[cl], &cs[cl]) })
	// The drain of what is still buffered closes the window, so every
	// write of the pass is paid for inside it.
	if err := s.st.Drain(); err != nil {
		c.tally.fail("Drain: %v", err)
	}
	wall := time.Since(t0)
	pr.io = delta(s0, statsOf(s.vols...))
	for _, tr := range trs {
		tr.flush()
	}

	all := merge(cs)
	pr.batchNs, pr.getNs = all.batchNs, all.getNs
	ops := float64(cfg.ops / cfg.clients * cfg.clients)
	var writes float64
	for _, w := range writesOps {
		writes += float64(w)
	}
	pr.ops = ops
	pr.vals["ops_per_s"] = perSecond(ops, wall)
	pr.vals["ios_per_op"] = pr.io.ios() / ops
	pr.vals["steps_per_op"] = float64(pr.io.steps) / ops
	pr.vals["write_ios_per_insert"] = ratio(float64(pr.io.writes), writes)
	// Rates inside the requests: the clients interleave these with writes,
	// so the time base is the time spent in the requests themselves.
	pr.vals["scan_records_per_s"] = perSecond(float64(all.scanned), time.Duration(all.scanNs))
	pr.vals["keys_per_s"] = perSecond(float64(len(all.batchNs)*batchKeys), sumNs(all.batchNs))
	insertLayer(pr.layer, all.insertNs)
	pr.layer["store.drains"] = float64(s.st.Drains() - drains0)
	var epoch uint64
	for i := 0; i < s.st.Shards(); i++ {
		epoch = max(epoch, s.st.Shard(i).Epoch())
	}
	pr.layer["store.epoch"] = float64(epoch)
	return pr
}

// client runs one client's script against the store and returns how many
// writes it made.
func (s *storeInst) client(cl int, ops []storeOp, batch []uint64, tr *clientTrace, cs *clientStats) (writes int64) {
	c, st := s.c, s.st
	present := s.present[cl]
	scanKeys := uint64(s.cfg.scanKeys)
	for i, op := range ops {
		switch op.kind {
		case opInsert, opDelete:
			name := "req.insert"
			t0 := time.Now()
			var err error
			if op.kind == opInsert {
				err = st.Insert(op.key, valOf(op.key))
			} else {
				name = "req.delete"
				err = st.Delete(op.key)
			}
			t1 := time.Now()
			cs.insertNs = append(cs.insertNs, int64(t1.Sub(t0)))
			tr.request(name, int64(i), t0, t1)
			if err != nil {
				c.tally.fail("%s key %d: %v", name, op.key, err)
				continue
			}
			c.tally.ok(1)
			writes++
			present[op.key/2] = op.kind == opInsert
		case opGet:
			t0 := time.Now()
			v, ok, err := st.Get(op.key)
			t1 := time.Now()
			cs.getNs = append(cs.getNs, int64(t1.Sub(t0)))
			tr.request("req.get", int64(i), t0, t1)
			c.tamper(&v)
			c.checkGet(op.key, v, ok, err)
		case opBatch:
			req := batch[:batchKeys]
			batch = batch[batchKeys:]
			t0 := time.Now()
			vals, found, err := st.GetBatch(req)
			t1 := time.Now()
			cs.batchNs = append(cs.batchNs, int64(t1.Sub(t0)))
			tr.request("req.getbatch", int64(i), t0, t1)
			c.checkBatch(req, vals, found, err)
		case opScan:
			r := scanRange{lo: op.key, hi: op.key + 2*(scanKeys-1), count: scanKeys,
				sum: valSum(op.key, 2, scanKeys), evenSum: true}
			c.scanOne(st, r, int64(i), tr, cs)
		}
	}
	return writes
}

// finish compares the store's whole contents with the reference (every
// preloaded key, and each client's record of the keys it owns), then closes
// it and checks that nothing is left allocated.
func (s *storeInst) finish() map[string]float64 {
	c, cfg := s.c, s.cfg
	var live int64
	for _, pres := range s.present {
		for _, p := range pres {
			if p {
				live++
			}
		}
	}
	why := s.verifyContents()
	c.tally.check(why == "", "final scan: %s", why)
	records := float64(int64(cfg.n) + live)
	out := map[string]float64{"space_blocks_per_krecord": float64(liveBlocks(s.vols...)) / (records / 1000)}
	if err := s.st.Close(); err != nil {
		c.tally.fail("close store: %v", err)
	}
	s.st = nil
	for i, p := range s.pools {
		c.tally.check(p.Free() == p.Capacity(), "shard %d pool has %d of %d frames free after the store closed", i, p.Free(), p.Capacity())
	}
	c.tally.check(liveBlocks(s.vols...) == 0, "%d blocks live after the store closed", liveBlocks(s.vols...))
	s.close()
	return out
}

func (s *storeInst) verifyContents() string {
	sc, err := s.st.Scan(0, ^uint64(0))
	if err != nil {
		return err.Error()
	}
	defer sc.Close()
	clients := uint64(s.cfg.clients)
	for k := uint64(1); k <= 2*uint64(s.cfg.n); k++ {
		if k%2 == 1 {
			j := k / 2
			if !s.present[j%clients][j] {
				continue
			}
		}
		rec, ok, err := sc.Next()
		if err != nil {
			return err.Error()
		}
		if !ok || rec.Key != k || rec.Val != valOf(k) {
			return fmt.Sprintf("want key %d, got (%d, %d, %v)", k, rec.Key, rec.Val, ok)
		}
	}
	if rec, ok, _ := sc.Next(); ok {
		return fmt.Sprintf("extra key %d", rec.Key)
	}
	return ""
}

func (s *storeInst) close() {
	if s.st != nil {
		s.st.Close()
	}
	for _, v := range s.vols {
		closeVolume(v)
	}
	s.vols = nil
}
