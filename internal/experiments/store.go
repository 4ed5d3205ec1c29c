package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/store"
)

// F13StoreOnline measures the online updatable store — the in-memory
// write front with generational B-tree handover — on a latency volume,
// swept over disk counts with every point taken on both storage backends:
//
//   - buffered write absorption: n random inserts through store.Insert
//     (including the background drains they trigger and a final Drain to
//     quiescence) against the same n keys driven one at a time into a
//     B-tree via Tree.Insert — the front costs no I/O and each drain
//     rebuilds a generation at Θ(n/B) (with fronts of n/2 ops k ≤ 1, so
//     every drain of the load is a full merge), so both wall clock and
//     counted I/Os drop far below the per-key inserts' O(log_B n) each;
//   - serving during handover: point-read throughput while a sealed front
//     is being merge-drained into the next generation (a full rebuild of
//     all n records: StartDrain, not the threshold, seals it), against
//     the same reads on the quiesced store — the drain runs on a
//     private reserved budget and readers keep the old generation until
//     the swap, so QPS must stay within 2x of quiesced.
//
// Like F12, F13 enforces its acceptance gates itself at the D=4 points —
// buffered writes >= 2x faster than per-key B-tree inserts at strictly
// fewer counted I/Os, and in-drain read QPS >= half of quiesced — and
// returns an error when one fails, so cmd/embench exits non-zero. The
// I/O gate holds at any latency; the two clock gates apply only at a
// nonzero latency: the shape test runs F13 at zero latency, and
// TestModelTimeF13StoreOnline decides them in model time (`make
// modeltime`).
func F13StoreOnline(n int, disks []int, latency time.Duration) (*Table, error) {
	t := &Table{
		ID:    "F13",
		Title: "online store: buffered writes vs per-key B-tree inserts; read QPS through a generation handover",
		Notes: "gates at D=4: store absorbs n updates >= 2x faster at fewer I/Os; QPS during drain >= 0.5x quiesced",
	}
	for _, d := range disks {
		for _, backend := range []string{"mem", "file"} {
			row, err := storePoint(n, d, latency, backend)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, *row)
			if d != 4 {
				continue
			}
			c := row.Cells
			if c["storeIOs"] >= c["btreeIOs"] {
				return nil, fmt.Errorf("F13 %s gate: store %0.f I/Os not strictly below per-key inserts %0.f",
					row.Label, c["storeIOs"], c["btreeIOs"])
			}
			if latency == 0 {
				continue
			}
			if c["storeMs"]*2 > c["btreeMs"] {
				return nil, fmt.Errorf("F13 %s gate: store %.1fms not >= 2x faster than per-key inserts %.1fms",
					row.Label, c["storeMs"], c["btreeMs"])
			}
			if 2*c["qpsDrain"] < c["qpsQuiet"] {
				return nil, fmt.Errorf("F13 %s gate: QPS during drain %.0f below half of quiesced %.0f",
					row.Label, c["qpsDrain"], c["qpsQuiet"])
			}
		}
	}
	return t, nil
}

// storePoint runs the online-store workloads for one (disks, backend)
// coordinate, owning its volume — and, on the file backend, its directory —
// for exactly its scope.
func storePoint(n, d int, latency time.Duration, backend string) (*Row, error) {
	cfg := pdm.Config{BlockBytes: 1024, MemBlocks: 256, Disks: d, DiskLatency: latency}
	if backend == "file" {
		dir, err := os.MkdirTemp("", "emF13")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
	}
	vol, err := pdm.NewVolume(cfg)
	if err != nil {
		return nil, err
	}
	defer vol.Close()
	pool := pdm.PoolFor(vol)

	keys := rand.New(rand.NewSource(0xF13)).Perm(n)

	// Reference: the same updates one at a time into a plain B-tree, the
	// online index the survey's buffer tree is measured against.
	vol.Stats().Reset()
	start := time.Now()
	tr, err := btree.New(vol, pool, nil)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if _, err := tr.Insert(uint64(k+1), uint64(i)); err != nil {
			return nil, err
		}
	}
	btreeMs := msSince(start)
	bs := vol.Stats().Snapshot()
	btreeIOs := bs.Reads + bs.Writes
	if err := tr.Release(); err != nil {
		return nil, err
	}

	// The store absorbs the same updates through its write front; the
	// clock includes every background drain plus the final one to
	// quiescence, so the comparison is total work, not deferral.
	vol.Stats().Reset()
	start = time.Now()
	st, err := store.Open(vol, pool, store.Config{FrontOps: int64(n / 2)})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if err := st.Insert(uint64(k+1), uint64(i)); err != nil {
			return nil, err
		}
	}
	if err := st.Drain(); err != nil {
		return nil, err
	}
	storeMs := msSince(start)
	ss := vol.Stats().Snapshot()
	storeIOs := ss.Reads + ss.Writes

	// Quiesced point-read throughput over the loaded store.
	const serveReads = 200
	rng := rand.New(rand.NewSource(0x5E12))
	serve := func() (float64, error) {
		start := time.Now()
		for i := 0; i < serveReads; i++ {
			k := uint64(rng.Intn(n) + 1)
			if _, ok, err := st.Get(k); err != nil || !ok {
				return 0, fmt.Errorf("F13 get(%d): ok=%v err=%v", k, ok, err)
			}
		}
		return serveReads / time.Since(start).Seconds(), nil
	}
	qpsQuiet, err := serve()
	if err != nil {
		return nil, err
	}

	// The same reads with a generation handover in flight: buffer a fresh
	// batch of updates, seal it, and serve while the background drain
	// merges it into the next generation. The batch stops one op short of
	// the threshold so that StartDrain seals it: an explicit drain always
	// compacts, so the reads run beside a rebuild of all n records, where
	// a threshold seal over n records (k = 2) would rewrite only a young
	// generation of the batch.
	for i := 0; i < n/2-1; i++ {
		if err := st.Insert(uint64(rng.Intn(n)+1), uint64(i)); err != nil {
			return nil, err
		}
	}
	var qpsDrain float64
	inDrain := 0
	if st.StartDrain() {
		start = time.Now()
		for st.Draining() {
			k := uint64(rng.Intn(n) + 1)
			if _, ok, err := st.Get(k); err != nil || !ok {
				return nil, fmt.Errorf("F13 in-drain get(%d): ok=%v err=%v", k, ok, err)
			}
			inDrain++
		}
		qpsDrain = float64(inDrain) / time.Since(start).Seconds()
	}
	if inDrain == 0 {
		// The drain outran the first read; serve quiesced numbers rather
		// than dividing by zero — the gate then compares like with like.
		qpsDrain = qpsQuiet
	}
	if err := st.Drain(); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	return &Row{
		Label: fmt.Sprintf("D=%d/%s", d, backend),
		Cells: map[string]float64{
			"btreeMs": btreeMs, "storeMs": storeMs,
			"btreeIOs": float64(btreeIOs), "storeIOs": float64(storeIOs),
			"qpsQuiet": qpsQuiet, "qpsDrain": qpsDrain,
			"drainReads": float64(inDrain), "drains": float64(st.Drains()),
		},
		Order: []string{"btreeMs", "storeMs", "btreeIOs", "storeIOs",
			"qpsQuiet", "qpsDrain", "drainReads", "drains"},
	}, nil
}
