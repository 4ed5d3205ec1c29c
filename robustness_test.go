package em_test

// Robustness contracts at the public surface: starved-pool errors are
// uniform across every layer, a fault that aborts an operation midway
// unwinds both resources the model accounts for — pool frames and volume
// blocks — exactly, and transient faults retried to success leave a served
// index's answers and counted I/Os unchanged. See the "Robustness" section
// of the package doc and CONTRIBUTING.md ("Writing fault-plan tests") for
// the conventions these tests pin down.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"em"
)

func recLess(a, b em.Record) bool { return a.Key < b.Key }

// soakPool allocates every free frame so the next allocation anywhere
// sees genuine starvation; the returned func hands the frames back.
func soakPool(t *testing.T, pool *em.Pool) func() {
	t.Helper()
	frames, err := pool.AllocN(pool.Free())
	if err != nil {
		t.Fatalf("soaking the pool: %v", err)
	}
	return func() {
		for _, f := range frames {
			f.Release()
		}
	}
}

// buildSmallTree creates a tree over vol/pool holding keys [1, n] with
// val = 3*key, via point inserts (so admission options can be set).
func buildSmallTree(t *testing.T, vol *em.Volume, pool *em.Pool, n int, opts *em.BTreeOptions) *em.BTree {
	t.Helper()
	tr, err := em.NewBTreeWith(vol, pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= uint64(n); k++ {
		if _, err := tr.Insert(k, 3*k); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// buildSmallStore opens a store over vol/pool, inserts keys [1, n] with
// val = 3*key, and drains so a generation exists to serve from.
func buildSmallStore(t *testing.T, vol *em.Volume, pool *em.Pool, cfg em.StoreConfig) *em.Store {
	t.Helper()
	st, err := em.OpenStore(vol, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		if err := st.Insert(k, 3*k); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStarvedPoolErrorsUniform is the starvation contract, table-driven
// over the allocating entry points of every layer: whatever wrapping a
// layer adds, errors.Is(err, em.ErrNoFrames) must hold, so one check
// works whether starvation surfaced in a sort, a scanner open, a session
// open, an admission shed, or a sharded fan-out. (Batched lookups are
// absent deliberately: GetBatch runs on the cache budget reserved at
// open, so pool starvation cannot reach it.) Gated variants must
// additionally match em.ErrOverload.
func TestStarvedPoolErrorsUniform(t *testing.T) {
	cfg := em.Config{BlockBytes: 512, MemBlocks: 48, Disks: 2}
	gated := &em.BTreeOptions{CacheFrames: 8, AdmitQueue: 2, AdmitWait: 2 * time.Millisecond}
	gatedStore := em.StoreConfig{FrontOps: 1 << 20, CacheFrames: 4, Width: 2,
		AdmitQueue: 2, AdmitWait: 2 * time.Millisecond}

	cases := []struct {
		name         string
		wantOverload bool
		run          func(t *testing.T) error
	}{
		{name: "merge-sort", run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			f, err := em.FromSlice(vol, em.PoolFor(vol), em.RecordCodec{},
				randomRecords(rand.New(rand.NewSource(1)), 500))
			if err != nil {
				t.Fatal(err)
			}
			_, err = em.MergeSort(f, em.NewPool(512, 2), recLess, nil)
			return err
		}},
		{name: "distribution-sort", run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			f, err := em.FromSlice(vol, em.PoolFor(vol), em.RecordCodec{},
				randomRecords(rand.New(rand.NewSource(2)), 500))
			if err != nil {
				t.Fatal(err)
			}
			_, err = em.DistributionSort(f, em.NewPool(512, 2), recLess, nil)
			return err
		}},
		{name: "sort-index", run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			f, err := em.FromSlice(vol, em.PoolFor(vol), em.RecordCodec{},
				randomRecords(rand.New(rand.NewSource(3)), 500))
			if err != nil {
				t.Fatal(err)
			}
			_, err = em.SortIndex(f, em.NewPool(512, 2), nil)
			return err
		}},
		{name: "btree-scan", run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			pool := em.PoolFor(vol)
			tr := buildSmallTree(t, vol, pool, 200, &em.BTreeOptions{CacheFrames: 8})
			defer soakPool(t, pool)()
			_, err := tr.Scan(1, 200)
			return err
		}},
		{name: "btree-session", run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			pool := em.PoolFor(vol)
			tr := buildSmallTree(t, vol, pool, 200, &em.BTreeOptions{CacheFrames: 8})
			defer soakPool(t, pool)()
			_, err := tr.NewSession(8, 2)
			return err
		}},
		{name: "btree-scan-gated", wantOverload: true, run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			pool := em.PoolFor(vol)
			tr := buildSmallTree(t, vol, pool, 200, gated)
			defer soakPool(t, pool)()
			_, err := tr.Scan(1, 200)
			return err
		}},
		{name: "store-scan", run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			pool := em.PoolFor(vol)
			st := buildSmallStore(t, vol, pool, em.StoreConfig{FrontOps: 1 << 20, CacheFrames: 4, Width: 2})
			defer st.Close()
			defer soakPool(t, pool)()
			_, err := st.Scan(1, 200)
			return err
		}},
		{name: "store-session", run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			pool := em.PoolFor(vol)
			st := buildSmallStore(t, vol, pool, em.StoreConfig{FrontOps: 1 << 20, CacheFrames: 4, Width: 2})
			defer st.Close()
			defer soakPool(t, pool)()
			_, err := st.NewSession(4, 2)
			return err
		}},
		{name: "store-session-gated", wantOverload: true, run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			pool := em.PoolFor(vol)
			st := buildSmallStore(t, vol, pool, gatedStore)
			defer st.Close()
			defer soakPool(t, pool)()
			_, err := st.NewSession(4, 2)
			return err
		}},
		{name: "store-scan-gated", wantOverload: true, run: func(t *testing.T) error {
			vol := em.MustVolume(cfg)
			pool := em.PoolFor(vol)
			st := buildSmallStore(t, vol, pool, gatedStore)
			defer st.Close()
			defer soakPool(t, pool)()
			_, err := st.Scan(1, 200)
			return err
		}},
		{name: "sharded-store-scan-gated", wantOverload: true, run: func(t *testing.T) error {
			vols := []*em.Volume{em.MustVolume(cfg), em.MustVolume(cfg)}
			pools := []*em.Pool{em.PoolFor(vols[0]), em.PoolFor(vols[1])}
			st, err := em.OpenShardedStore(vols, pools, &em.ShardedStoreOptions{Splits: []uint64{101}, Store: gatedStore})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			for k := uint64(1); k <= 200; k++ {
				if err := st.Insert(k, 3*k); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Drain(); err != nil {
				t.Fatal(err)
			}
			defer soakPool(t, pools[1])() // starve only the upper shard
			_, err = st.Scan(1, 200)
			return err
		}},
		{name: "sharded-session", run: func(t *testing.T) error {
			vol0, vol1 := em.MustVolume(cfg), em.MustVolume(cfg)
			pool0, pool1 := em.PoolFor(vol0), em.PoolFor(vol1)
			t0 := buildSmallTree(t, vol0, pool0, 100, &em.BTreeOptions{CacheFrames: 8})
			t1 := buildSmallTree(t, vol1, pool1, 100, &em.BTreeOptions{CacheFrames: 8})
			sharded, err := em.NewShardedTree([]*em.BTree{t0, t1}, &em.ShardedTreeOptions{Splits: []uint64{101}})
			if err != nil {
				t.Fatal(err)
			}
			defer soakPool(t, pool1)() // starve only the upper shard
			_, err = sharded.NewSession(8, 2)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatal("starved pool accepted the request")
			}
			if !errors.Is(err, em.ErrNoFrames) {
				t.Fatalf("starvation error does not match em.ErrNoFrames: %v", err)
			}
			if tc.wantOverload != errors.Is(err, em.ErrOverload) {
				t.Fatalf("overload match = %v, want %v: %v",
					!tc.wantOverload, tc.wantOverload, err)
			}
		})
	}
}

// backendConfigs returns the sim- and file-backed variants of cfg; the
// fault-unwind tests below run on both, since the unwind discipline must
// not depend on the storage medium.
func backendConfigs(t *testing.T, cfg em.Config) map[string]em.Config {
	t.Helper()
	file := cfg
	file.Dir = t.TempDir()
	return map[string]em.Config{"sim": cfg, "file": file}
}

// liveBlocks is the model's block-leak detector: addresses allocated and
// not yet freed.
func liveBlocks(vol *em.Volume) int64 { return vol.Allocated() - vol.FreeBlocks() }

// TestSortIndexUnwindUnderFault crashes the volume midway through a fused
// sort→bulk-load build and asserts the documented unwind contract: the
// pool is restored exactly and no blocks beyond the input file stay
// allocated, on both storage backends.
func TestSortIndexUnwindUnderFault(t *testing.T) {
	base := em.Config{BlockBytes: 512, MemBlocks: 48, Disks: 2}
	const n = 2500

	// Fault-free twin first (CONTRIBUTING.md): count the ops of input
	// creation and of the build itself, so the crash point can be pinned
	// to the middle of the build deterministically.
	dry := em.MustVolume(base)
	pool := em.PoolFor(dry)
	f, err := em.FromSlice(dry, pool, em.RecordCodec{}, randomRecords(rand.New(rand.NewSource(7)), n))
	if err != nil {
		t.Fatal(err)
	}
	s := dry.Stats().Snapshot()
	inputOps := int64(s.Reads + s.Writes)
	if _, err := em.SortIndex(f, pool, nil); err != nil {
		t.Fatal(err)
	}
	s = dry.Stats().Snapshot()
	buildOps := int64(s.Reads+s.Writes) - inputOps

	for name, cfg := range backendConfigs(t, base) {
		t.Run(name, func(t *testing.T) {
			cfg.Fault = &em.FaultPlan{Seed: 7, FailAfter: inputOps + buildOps/2}
			vol, err := em.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer vol.Close()
			pool := em.PoolFor(vol)
			f, err := em.FromSlice(vol, pool, em.RecordCodec{}, randomRecords(rand.New(rand.NewSource(7)), n))
			if err != nil {
				t.Fatal(err)
			}
			freeBefore, liveBefore := pool.Free(), liveBlocks(vol)
			_, err = em.SortIndex(f, pool, nil)
			if err == nil {
				t.Fatal("SortIndex survived a mid-build crash")
			}
			if !errors.Is(err, em.ErrFaulted) {
				t.Fatalf("crash error does not match em.ErrFaulted: %v", err)
			}
			if got := pool.Free(); got != freeBefore {
				t.Errorf("pool not restored: free %d, want %d", got, freeBefore)
			}
			if got := liveBlocks(vol); got != liveBefore {
				t.Errorf("blocks leaked: live %d, want %d", got, liveBefore)
			}
			if !vol.Fault().Crashed() {
				t.Error("fault plan never reached its crash point")
			}
		})
	}
}

// TestStoreDrainUnwindUnderFault crashes the volume midway through a
// store's front→generation handover. The failed drain must restore the
// serving pool exactly (the handover runs on its private budget), and a
// close through the dead volume — whatever error it reports — must still
// hand back every frame and every block.
func TestStoreDrainUnwindUnderFault(t *testing.T) {
	base := em.Config{BlockBytes: 512, MemBlocks: 64, Disks: 2}
	scfg := em.StoreConfig{FrontOps: 1 << 20, CacheFrames: 4, Width: 2}
	const n = 400

	load := func(vol *em.Volume, pool *em.Pool) *em.Store {
		t.Helper()
		st, err := em.OpenStore(vol, pool, scfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= n; k++ {
			if err := st.Insert(k, 3*k); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}

	// Fault-free twin: ops up to the drain, then through it.
	dry := em.MustVolume(base)
	st := load(dry, em.PoolFor(dry))
	s := dry.Stats().Snapshot()
	preOps := int64(s.Reads + s.Writes)
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	s = dry.Stats().Snapshot()
	drainOps := int64(s.Reads+s.Writes) - preOps
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for name, cfg := range backendConfigs(t, base) {
		t.Run(name, func(t *testing.T) {
			cfg.Fault = &em.FaultPlan{Seed: 7, FailAfter: preOps + drainOps/2}
			vol, err := em.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer vol.Close()
			pool := em.PoolFor(vol)
			st := load(vol, pool)
			freeBefore := pool.Free()
			err = st.Drain()
			if err == nil {
				t.Fatal("Drain survived a mid-handover crash")
			}
			if !errors.Is(err, em.ErrFaulted) {
				t.Fatalf("crash error does not match em.ErrFaulted: %v", err)
			}
			if got := pool.Free(); got != freeBefore {
				t.Errorf("serving pool not restored: free %d, want %d", got, freeBefore)
			}
			// Reads must keep serving the pre-drain contents through the
			// surviving generation ⊕ front overlay.
			if v, ok, err := st.Get(uint64(n / 2)); err != nil || !ok || v != 3*uint64(n/2) {
				t.Errorf("read after failed drain: v=%d ok=%v err=%v", v, ok, err)
			}
			st.Close() // the volume is dead; the error may be anything,
			// but resources must come back regardless.
			if got := pool.InUse(); got != 0 {
				t.Errorf("close leaked %d frames", got)
			}
			if got := liveBlocks(vol); got != 0 {
				t.Errorf("close leaked %d blocks", got)
			}
		})
	}
}

// TestShardedGetBatchUnwindUnderFault kills one shard's volume at its
// first serving read and asserts graceful degradation end to end: the
// fan-out reports a typed em.PartialError naming the dead shard, the
// surviving shard's answers arrive, and neither shard's pool or volume is
// left holding anything it did not hold before the call.
func TestShardedGetBatchUnwindUnderFault(t *testing.T) {
	base := em.Config{BlockBytes: 512, MemBlocks: 48, Disks: 2}
	const perShard = 2000

	build := func(vol *em.Volume, lo uint64) *em.BTree {
		t.Helper()
		pool := em.PoolFor(vol)
		recs := make([]em.Record, perShard)
		for i := range recs {
			k := lo + uint64(i)
			recs[i] = em.Record{Key: k, Val: 3 * k}
		}
		f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := em.BulkLoadBTree(vol, pool, 8, f)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Warm(); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Fault-free twin of the upper shard pins the crash to the first
	// serving read: FailAfter = every transfer the build needs.
	dry := em.MustVolume(base)
	build(dry, perShard+1)
	s := dry.Stats().Snapshot()
	buildOps := int64(s.Reads + s.Writes)

	for name, cfg := range backendConfigs(t, base) {
		t.Run(name, func(t *testing.T) {
			crashCfg := cfg
			crashCfg.Fault = &em.FaultPlan{Seed: 1, FailAfter: buildOps}
			if cfg.Dir != "" { // file volumes must not share a directory
				cfg.Dir = t.TempDir()
				crashCfg.Dir = t.TempDir()
			}
			vol0, err := em.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer vol0.Close()
			vol1, err := em.NewVolume(crashCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer vol1.Close()
			t0, t1 := build(vol0, 1), build(vol1, perShard+1)
			sharded, err := em.NewShardedTree([]*em.BTree{t0, t1}, &em.ShardedTreeOptions{Splits: []uint64{perShard + 1}})
			if err != nil {
				t.Fatal(err)
			}
			pool0, pool1 := em.PoolFor(vol0), em.PoolFor(vol1)
			free0, free1 := pool0.Free(), pool1.Free()
			live0, live1 := liveBlocks(vol0), liveBlocks(vol1)

			keys := make([]uint64, 0, 32)
			for i := 0; i < 16; i++ { // evenly spread, half per shard
				keys = append(keys, uint64(1+i*perShard/16))
				keys = append(keys, uint64(perShard+1+i*perShard/16))
			}
			vals, found, err := sharded.GetBatch(keys)
			if err == nil {
				t.Fatal("fan-out over a dead shard reported success")
			}
			var pe *em.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("want an em.PartialError, got %v", err)
			}
			if !errors.Is(err, em.ErrFaulted) {
				t.Fatalf("partial error does not expose the crash cause: %v", err)
			}
			if got := len(pe.Failed); got != 1 || pe.Failed[0] != 1 {
				t.Fatalf("failed shards %v, want [1]", pe.Failed)
			}
			served := 0
			for i, k := range keys {
				if !pe.Served[i] {
					continue
				}
				served++
				if !found[i] || vals[i] != 3*k {
					t.Errorf("served key %d: val %d found %v", k, vals[i], found[i])
				}
			}
			if served != len(keys)/2 {
				t.Errorf("served %d keys, want the surviving shard's %d", served, len(keys)/2)
			}
			if got := pool0.Free(); got != free0 {
				t.Errorf("surviving shard's pool not restored: free %d, want %d", got, free0)
			}
			if got := pool1.Free(); got != free1 {
				t.Errorf("dead shard's pool not restored: free %d, want %d", got, free1)
			}
			if got := liveBlocks(vol0); got != live0 {
				t.Errorf("surviving shard leaked blocks: live %d, want %d", got, live0)
			}
			if got := liveBlocks(vol1); got != live1 {
				t.Errorf("dead shard leaked blocks: live %d, want %d", got, live1)
			}
		})
	}
}

// TestServeUnderRetriedFaults is the retry identity at the serving layer,
// on both backends: a B-tree bulk-loaded, warmed and served on a volume
// whose fault plan injects transient read and write errors and latency
// spikes, with retries on, answers every key exactly as its clean twin
// does, at identical counted I/Os, and Stats.Retries accounts for every
// injected fault. (TestRetryToSuccessIdentity pins the same identity one
// block transfer at a time.)
func TestServeUnderRetriedFaults(t *testing.T) {
	base := em.Config{BlockBytes: 1024, MemBlocks: 256, Disks: 2}
	const n, batches = 1 << 11, 80

	// serve builds the tree over keys [1, n] with val = 3*key and checks
	// every answer of a seeded run of 16-key batches.
	serve := func(t *testing.T, vol *em.Volume) {
		t.Helper()
		pool := em.PoolFor(vol)
		recs := make([]em.Record, n)
		for i := range recs {
			k := uint64(i + 1)
			recs[i] = em.Record{Key: k, Val: 3 * k}
		}
		f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := em.BulkLoadBTree(vol, pool, 16, f)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if err := tr.Warm(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for b := 0; b < batches; b++ {
			keys := make([]uint64, 16)
			for i := range keys {
				keys[i] = uint64(rng.Intn(n) + 1)
			}
			vals, found, err := tr.GetBatch(keys)
			if err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			for i, k := range keys {
				if !found[i] || vals[i] != 3*k {
					t.Fatalf("batch %d: key %d = (%d, %v), want (%d, true)", b, k, vals[i], found[i], 3*k)
				}
			}
		}
	}

	for name, cfg := range backendConfigs(t, base) {
		t.Run(name, func(t *testing.T) {
			faultCfg := cfg
			faultCfg.Fault = &em.FaultPlan{Seed: 7, ReadErr: 0.04, WriteErr: 0.02,
				StallEvery: 128, Stall: 10 * time.Microsecond}
			faultCfg.Retry = &em.RetryPolicy{MaxRetries: 8}
			if cfg.Dir != "" { // file volumes must not share a directory
				cfg.Dir = t.TempDir()
				faultCfg.Dir = t.TempDir()
			}
			clean, err := em.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer clean.Close()
			faulted, err := em.NewVolume(faultCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer faulted.Close()

			serve(t, clean)
			serve(t, faulted)
			fb := faulted.Fault()
			if fb.Injected() == 0 || fb.Stalls() == 0 {
				t.Fatalf("plan injected %d faults and %d stalls; the check is vacuous", fb.Injected(), fb.Stalls())
			}
			cs, fs := clean.Stats().Snapshot(), faulted.Stats().Snapshot()
			if fs.Retries != uint64(fb.Injected()) {
				t.Errorf("retries %d != injected faults %d", fs.Retries, fb.Injected())
			}
			fs.Retries = 0
			if !reflect.DeepEqual(cs, fs) {
				t.Errorf("counted I/Os differ from the clean twin:\nclean   %+v\nfaulted %+v", cs, fs)
			}
		})
	}
}
