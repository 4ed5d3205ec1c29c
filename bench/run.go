package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"em"
)

const (
	// blockBytes holds 255 records of 16 bytes. It is deliberately not a
	// multiple of 4096: the file backend asks for O_DIRECT only when it is,
	// and on the reference host a direct 4 KiB transfer takes 60 to 110 us
	// depending on what else the host's disk is doing, for minutes at a
	// time, which no ten-second run can average out. Buffered, the file
	// regime measures one pread or pwrite per block against the page cache:
	// the syscall layer's own cost, which is steady.
	blockBytes = 4080
	batchKeys  = 64 // keys per GetBatch request, every workload
)

// regime is one of the three programs the stack turns into depending on
// pdm.Config: see README.md.
type regime struct {
	name    string
	latency time.Duration
	file    bool
}

// getGroup is how many consecutive Gets make one latency sample (see
// getLoop): one where a Get waits 2 ms for a block, 128 where it takes a
// microsecond.
func (r regime) getGroup() int {
	if r.latency > 0 {
		return 1
	}
	return 128
}

var (
	regimeCPU   = regime{name: "cpu"}
	regimeModel = regime{name: "model", latency: 2 * time.Millisecond}
	regimeFile  = regime{name: "file", file: true}
)

// options are the knobs of one run, all from the command line.
type options struct {
	seed    int64
	seconds int
	quick   bool
	dir     string // existing scratch directory for file-backed volumes
	corrupt bool   // test hook: flip one answer so verification must fail
}

// runCtx is the state shared by everything one workload run does: its
// options, the tally of checked operations, and the scratch space.
type runCtx struct {
	opt      options
	workload string
	traced   bool // the per-layer run: request counts are halved
	tally    tally
	volSeq   atomic.Int64
	tampered atomic.Bool
}

// scale shrinks a data size for -quick.
func (c *runCtx) scale(n int) int {
	if c.opt.quick {
		return max(n/16, 1)
	}
	return n
}

// requests shrinks a per-pass request count: by 16 for -quick, and by 2 on
// the traced run, which measures four passes where it reports one.
func (c *runCtx) requests(n int) int {
	if c.traced {
		n /= 2
	}
	return c.scale(n)
}

// passes turns the nominal window length into a pass count: op counts per
// pass are fixed, so counted I/Os line up across runs, and -seconds only
// chooses how many passes are measured.
func (c *runCtx) passes(at10 int) int {
	if c.opt.quick {
		return 1
	}
	return max((at10*c.opt.seconds+5)/10, 1)
}

// tamper is the corruption hook: with -corrupt it flips the first answer it
// is shown, once per run.
func (c *runCtx) tamper(v *uint64) {
	if c.opt.corrupt && c.tampered.CompareAndSwap(false, true) {
		*v ^= 1
	}
}

// tally counts checked operations. An error, a shed or a wrong answer is a
// failure; the first few are kept for the report.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	msgs      []string
}

func (t *tally) ok(n int) { t.attempted.Add(int64(n)) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < 5 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check records an invariant the harness asserts outside any request
// (restored pools, live blocks, final contents).
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.ok(1)
	} else {
		t.fail(format, args...)
	}
}

// newVolume opens a volume of the regime; file volumes get a fresh
// directory under the scratch dir.
func (c *runCtx) newVolume(r regime, disks, memBlocks int) (*em.Volume, error) {
	cfg := em.Config{BlockBytes: blockBytes, MemBlocks: memBlocks, Disks: disks, DiskLatency: r.latency}
	if r.file {
		cfg.Dir = fmt.Sprintf("%s/vol%04d", c.opt.dir, c.volSeq.Add(1))
	}
	return em.NewVolume(cfg)
}

// closeVolume closes v and removes its directory, if it has one.
func closeVolume(v *em.Volume) error {
	err := v.Close()
	if dir := v.Config().Dir; dir != "" {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}
	return err
}

func liveBlocks(vols ...*em.Volume) int64 {
	var n int64
	for _, v := range vols {
		n += v.Allocated() - v.FreeBlocks()
	}
	return n
}

// ioDelta is the counted I/O between two aggregate snapshots.
type ioDelta struct {
	reads, writes, steps, retries uint64
	perDisk                       []uint64
}

// statsOf aggregates the volumes' counters as the sharded facades do, except
// that PerDiskReads carries each disk's reads and writes together: the only
// use of the per-disk breakdown here is the skew of total load.
func statsOf(vols ...*em.Volume) em.Stats {
	var agg em.Stats
	for _, v := range vols {
		s := v.Stats().Snapshot()
		agg.Reads += s.Reads
		agg.Writes += s.Writes
		agg.Steps += s.Steps
		agg.Retries += s.Retries
		for d := range s.PerDiskReads {
			agg.PerDiskReads = append(agg.PerDiskReads, s.PerDiskReads[d]+s.PerDiskWrites[d])
		}
	}
	return agg
}

func delta(a, b em.Stats) ioDelta {
	d := ioDelta{reads: b.Reads - a.Reads, writes: b.Writes - a.Writes,
		steps: b.Steps - a.Steps, retries: b.Retries - a.Retries}
	for i := range b.PerDiskReads {
		d.perDisk = append(d.perDisk, b.PerDiskReads[i]-a.PerDiskReads[i])
	}
	return d
}

func (d ioDelta) ios() float64 { return float64(d.reads + d.writes) }

// layer turns a window's counted I/O into the pdm per-layer counters.
func (d ioDelta) layer(out map[string]float64) {
	out["pdm.reads"] = float64(d.reads)
	out["pdm.writes"] = float64(d.writes)
	out["pdm.steps"] = float64(d.steps)
	out["pdm.retries"] = float64(d.retries)
	out["pdm.parallelism"] = ratio(d.ios(), float64(d.steps))
	var sum, most uint64
	for _, n := range d.perDisk {
		sum += n
		most = max(most, n)
	}
	out["pdm.disk_skew"] = ratio(float64(most)*float64(len(d.perDisk)), float64(sum))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reader is what a point-lookup client drives: a tree, a store or a session.
type reader interface {
	Get(key uint64) (uint64, bool, error)
	GetBatch(keys []uint64) ([]uint64, []bool, error)
}

// clientStats is one client's measurements of one pass, merged afterwards.
type clientStats struct {
	batchNs, getNs, insertNs []int64
	scanNs                   int64
	scanned                  int64
}

// batchLoop issues one GetBatch per batchKeys-sized slice of keys, timing
// each request and checking every answer against the key-to-value function.
func (c *runCtx) batchLoop(r reader, keys []uint64, tr *clientTrace, cs *clientStats) {
	for i := 0; i+batchKeys <= len(keys); i += batchKeys {
		req := keys[i : i+batchKeys]
		t0 := time.Now()
		vals, found, err := r.GetBatch(req)
		t1 := time.Now()
		cs.batchNs = append(cs.batchNs, int64(t1.Sub(t0)))
		tr.request("req.getbatch", int64(i/batchKeys), t0, t1)
		c.checkBatch(req, vals, found, err)
	}
}

func (c *runCtx) checkBatch(req, vals []uint64, found []bool, err error) {
	if err != nil || len(vals) != len(req) || len(found) != len(req) {
		c.tally.fail("GetBatch of %d keys: %d answers, err %v", len(req), len(vals), err)
		return
	}
	c.tamper(&vals[0])
	for j, k := range req {
		if !found[j] || vals[j] != valOf(k) {
			c.tally.fail("GetBatch key %d: got (%d, %v), want (%d, true)", k, vals[j], found[j], valOf(k))
			return
		}
	}
	c.tally.ok(1)
}

// getLoop issues one Get per key, checked the same way. A latency sample is
// group consecutive Gets timed together and divided by group: where a Get
// takes a microsecond, the same order as reading the clock or taking an
// interrupt, timing them one by one measures the host's jitter, not the Get.
func (c *runCtx) getLoop(r reader, keys []uint64, group int, tr *clientTrace, cs *clientStats) {
	vals := make([]uint64, group)
	found := make([]bool, group)
	for i := 0; i+group <= len(keys); i += group {
		var err error
		t0 := time.Now()
		for j, k := range keys[i : i+group] {
			var e error
			if vals[j], found[j], e = r.Get(k); e != nil {
				err = e
			}
		}
		t1 := time.Now()
		cs.getNs = append(cs.getNs, int64(t1.Sub(t0))/int64(group))
		tr.request("req.get", int64(i), t0, t1)
		for j, k := range keys[i : i+group] {
			c.checkGet(k, vals[j], found[j], err)
		}
	}
}

func (c *runCtx) checkGet(k, v uint64, ok bool, err error) {
	if err != nil || !ok || v != valOf(k) {
		c.tally.fail("Get key %d: got (%d, %v, %v), want (%d, true)", k, v, ok, err, valOf(k))
		return
	}
	c.tally.ok(1)
}

// scanRange is one range scan and what it must return: the number of records
// and the sum of their values — of all keys in the range or, with evenSum, of
// the even keys only, the odd ones then being checked one by one.
type scanRange struct {
	lo, hi  uint64
	count   uint64
	sum     uint64
	evenSum bool
}

// scanOne opens, drains and closes one scan, checking count, strict key
// order and checksum.
func (c *runCtx) scanOne(idx em.Index, r scanRange, req int64, tr *clientTrace, cs *clientStats) {
	t0 := time.Now()
	n, why := drainScan(idx, r)
	t1 := time.Now()
	cs.scanNs += int64(t1.Sub(t0))
	cs.scanned += int64(n)
	tr.request("req.scan", req, t0, t1)
	if why != "" {
		c.tally.fail("Scan [%d, %d]: %s", r.lo, r.hi, why)
		return
	}
	c.tally.ok(1)
}

func drainScan(idx em.Index, r scanRange) (n uint64, why string) {
	sc, err := idx.Scan(r.lo, r.hi)
	if err != nil {
		return 0, err.Error()
	}
	defer sc.Close()
	var sum, counted, prev uint64
	for {
		rec, ok, err := sc.Next()
		if err != nil {
			return n, err.Error()
		}
		if !ok {
			break
		}
		if n > 0 && rec.Key <= prev {
			return n, fmt.Sprintf("key %d after %d", rec.Key, prev)
		}
		prev = rec.Key
		n++
		if r.evenSum && rec.Key%2 == 1 {
			// A concurrently written key: present or not, its value must
			// still be the function of its key.
			if rec.Val != valOf(rec.Key) {
				return n, fmt.Sprintf("key %d has value %d", rec.Key, rec.Val)
			}
			continue
		}
		counted++
		sum += rec.Val
	}
	if counted != r.count || sum != r.sum {
		return n, fmt.Sprintf("%d records summing to %d, want %d summing to %d", counted, sum, r.count, r.sum)
	}
	return n, ""
}

// runClients runs fn once per client, concurrently, and returns the wall
// clock of the slowest. It collects garbage first, so that every timed phase
// starts from the same heap state whatever ran before it.
func runClients(n int, fn func(client int)) time.Duration {
	runtime.GC()
	t0 := time.Now()
	if n == 1 {
		fn(0)
		return time.Since(t0)
	}
	var wg sync.WaitGroup
	for cl := 0; cl < n; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			fn(cl)
		}(cl)
	}
	wg.Wait()
	return time.Since(t0)
}

// passResult is what one timed pass yields: per-pass values of the rate and
// counted metrics by name, the latency samples, and the window's counters.
type passResult struct {
	vals    map[string]float64
	batchNs []int64
	getNs   []int64
	io      ioDelta
	ops     float64 // the workload's ops in this pass
	layer   map[string]float64
}

// merge folds the clients' measurements of a pass into one.
func merge(cs []clientStats) clientStats {
	var all clientStats
	for i := range cs {
		all.batchNs = append(all.batchNs, cs[i].batchNs...)
		all.getNs = append(all.getNs, cs[i].getNs...)
		all.insertNs = append(all.insertNs, cs[i].insertNs...)
		all.scanNs += cs[i].scanNs
		all.scanned += cs[i].scanned
	}
	return all
}

func sumNs(xs []int64) time.Duration {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return time.Duration(sum)
}

// insertLayer reports per-call write latencies as the store layer's metrics.
func insertLayer(out map[string]float64, ns []int64) {
	out["store.insert_ns"] = ratio(float64(sumNs(ns)), float64(len(ns)))
	out["store.insert_p99_us"] = percentileUs(sortedCopy(ns), 0.99)
}

func perSecond(n float64, d time.Duration) float64 { return n / d.Seconds() }

// instance is one set-up workload, ready to be measured.
type instance interface {
	// pass runs one timed pass.
	pass(p int, rec *recorder) passResult
	// finish runs the final verification, releases everything, asserts
	// that pools and volumes are back where they started, and returns the
	// end-of-run values (space).
	finish() map[string]float64
}

// workloadDef ties a workload name to its set-up and its pass count.
type workloadDef struct {
	name   string
	reg    regime
	disks  int // per volume, and
	shards int // volumes: the geometry the layer probes copy
	at10   int // passes measured at -seconds 10
	setups int // set-ups timed per run; the last one is measured
	// setup builds the inputs and the index and returns the values it
	// measured on the way (load rate and write cost on serve-* and store-*).
	setup func(c *runCtx) (instance, map[string]float64, error)
}

// accum gathers every value seen for every metric, whatever stage produced
// it, and reduces them at the end.
type accum struct {
	vals    map[string][]float64
	batchNs [][]int64 // per pass
	getNs   [][]int64
}

func newAccum() *accum { return &accum{vals: map[string][]float64{}} }

func (a *accum) add(vals map[string]float64) {
	for k, v := range vals {
		a.vals[k] = append(a.vals[k], v)
	}
}

func (a *accum) addPass(pr passResult) {
	a.add(pr.vals)
	a.batchNs = append(a.batchNs, pr.batchNs)
	a.getNs = append(a.getNs, pr.getNs)
}

// percentileSample reports quantile q: the median over passes of each pass's
// own quantile. A noisy second on the host then spoils one pass; pooled, its
// samples would be the whole tail of the run.
func percentileSample(passes [][]int64, q float64) sample {
	per := make([]float64, len(passes))
	n := 0
	for i, p := range passes {
		per[i] = percentileUs(sortedCopy(p), q)
		n += len(p)
	}
	s := summarize(per, "us")
	s.N = n
	return s
}

func (a *accum) endToEnd() map[string]sample {
	out := map[string]sample{}
	for _, m := range endToEndMetrics {
		switch m.Name {
		case "batch_p50_us":
			out[m.Name] = percentileSample(a.batchNs, 0.50)
		case "get_p50_us":
			out[m.Name] = percentileSample(a.getNs, 0.50)
		default:
			out[m.Name] = summarize(a.vals[m.Name], m.Unit)
		}
	}
	return out
}

// result is one workload's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
}

func (c *runCtx) result(metrics map[string]sample) result {
	return result{Workload: c.workload, Attempted: c.tally.attempted.Load(), Failed: c.tally.failed.Load(),
		Failures: c.tally.msgs, Metrics: metrics}
}

// runUntraced is the end-to-end run: set up several times (the median is
// setup_s, the last set-up is kept), measure the passes, verify and tear
// down.
func runUntraced(def *workloadDef, opt options) (result, error) {
	c := &runCtx{opt: opt, workload: def.name}
	acc := newAccum()
	var inst instance
	setups := def.setups
	if opt.quick {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.finish()
		}
		t0 := time.Now()
		var sv map[string]float64
		var err error
		inst, sv, err = def.setup(c)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		acc.add(sv)
		acc.add(map[string]float64{"setup_s": time.Since(t0).Seconds()})
	}
	for p := 0; p < c.passes(def.at10); p++ {
		acc.addPass(inst.pass(p, nil))
	}
	acc.add(inst.finish())
	return c.result(acc.endToEnd()), nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// runTraced is the per-layer run: one set-up, one untraced pass (whose
// allocation counters and headline rate are the reference), one traced pass
// (whose spans and counted I/O are reported), then the layer ladder.
func runTraced(def *workloadDef, opt options) (result, []span, error) {
	c := &runCtx{opt: opt, workload: def.name, traced: true}
	rec := newRecorder(def.name)
	inst, _, err := def.setup(c)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s set-up: %w", def.name, err)
	}
	// Plain, traced, traced, plain: a drift from pass to pass (a warming
	// cache, a growing store) cancels out of the overhead ratio.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	plain := inst.pass(0, nil)
	runtime.ReadMemStats(&m1)
	traced := inst.pass(1, rec)
	traced2 := inst.pass(2, rec)
	plain2 := inst.pass(3, nil)
	inst.finish()

	layer, err := runProbes(c, rec, def)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", def.name, err)
	}
	traced.io.layer(layer)
	for k, v := range traced.layer {
		layer[k] = v // the workload's own window, where it has one, over the probe's
	}
	layer["em.batch_p95_us"] = percentileSample([][]int64{plain.batchNs, plain2.batchNs}, 0.95).Value
	layer["em.get_p99_us"] = percentileSample([][]int64{plain.getNs, plain2.getNs}, 0.99).Value
	layer["em.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / plain.ops
	layer["em.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / plain.ops
	layer["em.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	layer["em.peak_heap_mib"] = float64(m1.HeapSys) / (1 << 20)
	layer["bench.trace_overhead_ratio"] = ratio(traced.vals["ops_per_s"]+traced2.vals["ops_per_s"],
		plain.vals["ops_per_s"]+plain2.vals["ops_per_s"])

	metrics := map[string]sample{}
	for _, m := range perLayerMetrics {
		v, ok := layer[m.Name]
		if !ok {
			c.tally.fail("per-layer metric %s was not measured", m.Name)
		}
		metrics[m.Name] = sample{Value: v, Unit: m.Unit, Min: v, Max: v, N: 1}
	}
	return c.result(metrics), rec.spans, nil
}
