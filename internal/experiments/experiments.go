// Package experiments implements every evaluation experiment of the survey
// reproduction — one function per table or figure in cmd/embench's
// catalogue.
//
// Each experiment builds its workload on a fresh instrumented volume, runs
// the algorithm(s) under test, and returns the measured I/O counts together
// with the survey's predicted value, so that callers can check the claimed
// shape (who wins, by what factor, where crossovers fall). Two callers
// share this package: the cmd/embench table printer and the package's own
// shape-asserting tests.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"

	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// volumeDir, when non-empty, routes every experiment volume to file-backed
// storage. Each volume gets its own numbered subdirectory so parameter
// sweeps never collide on backing files.
var (
	volumeDir atomic.Value // string
	volumeSeq atomic.Int64
)

// SetVolumeDir makes every subsequently created experiment volume
// file-backed, one fresh subdirectory per volume under dir; the empty
// string restores the in-memory simulation. The I/O counts every experiment
// reports are identical either way — only the medium under the wall-clock
// columns changes. cmd/embench wires this to its -dir flag so the full
// catalogue (T1–T9, F1–F14) runs against real files with a flag flip.
func SetVolumeDir(dir string) { volumeDir.Store(dir) }

// newVolume creates one experiment volume honouring SetVolumeDir.
func newVolume(cfg pdm.Config) (*pdm.Volume, error) {
	if dir, _ := volumeDir.Load().(string); dir != "" {
		cfg.Dir = filepath.Join(dir, fmt.Sprintf("vol%04d", volumeSeq.Add(1)))
	}
	return pdm.NewVolume(cfg)
}

// Row is one line of an experiment table: a parameter point with measured
// and predicted quantities per algorithm.
type Row struct {
	// Label names the parameter point, e.g. "N=65536" or "D=4".
	Label string
	// Cells maps column name to value. Numeric values are float64 so that
	// both I/O counts and ratios fit.
	Cells map[string]float64
	// Order lists the column names in display order.
	Order []string
}

// Table is a complete experiment result.
type Table struct {
	// ID is the experiment id in cmd/embench's catalogue, e.g. "T1" or "F4".
	ID string
	// Title is the survey claim being reproduced.
	Title string
	// Rows are the parameter points in sweep order.
	Rows []Row
	// Notes records the shape check the experiment asserts.
	Notes string
}

// String renders the table as aligned text rows.
func (t *Table) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", t.ID, t.Title)
	if len(t.Rows) == 0 {
		return s + "(no rows)\n"
	}
	cols := t.Rows[0].Order
	s += fmt.Sprintf("%-16s", "point")
	for _, c := range cols {
		s += fmt.Sprintf("%16s", c)
	}
	s += "\n"
	for _, r := range t.Rows {
		s += fmt.Sprintf("%-16s", r.Label)
		for _, c := range cols {
			v := r.Cells[c]
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				s += fmt.Sprintf("%16.0f", v)
			} else {
				s += fmt.Sprintf("%16.2f", v)
			}
		}
		s += "\n"
	}
	if t.Notes != "" {
		s += "   shape: " + t.Notes + "\n"
	}
	return s
}

// Env bundles a fresh volume and pool for one experimental run.
type Env struct {
	Vol  *pdm.Volume
	Pool *pdm.Pool
}

// NewEnv creates a standard experiment environment: blockBytes-byte blocks,
// memBlocks frames of memory, and disks disks, on whichever storage backend
// SetVolumeDir selected.
func NewEnv(blockBytes, memBlocks, disks int) Env {
	vol, err := newVolume(pdm.Config{BlockBytes: blockBytes, MemBlocks: memBlocks, Disks: disks})
	if err != nil {
		panic(err)
	}
	return Env{Vol: vol, Pool: pdm.PoolFor(vol)}
}

// Close releases the environment's volume: a no-op for the in-memory
// simulation, the handle-closing step for file-backed runs (SetVolumeDir),
// where an unclosed Env would leak D file descriptors per experiment point.
func (e Env) Close() error { return e.Vol.Close() }

// DefaultEnv is the baseline device shape used across experiments:
// 1 KiB blocks (64 records of 16 bytes), 16 frames of memory, one disk.
func DefaultEnv() Env { return NewEnv(1024, 16, 1) }

// RandomRecords produces n uniform random 16-byte records with a fixed seed.
func RandomRecords(seed int64, n int) []record.Record {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]record.Record, n)
	for i := range rs {
		rs[i] = record.Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	return rs
}

// NearlySortedRecords produces n records whose keys are ascending except for
// a fraction frac of random displacements — the favourable case for
// replacement selection.
func NearlySortedRecords(seed int64, n int, frac float64) []record.Record {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]record.Record, n)
	for i := range rs {
		rs[i] = record.Record{Key: uint64(i) << 16, Val: uint64(i)}
	}
	swaps := int(float64(n) * frac)
	for s := 0; s < swaps; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		rs[i], rs[j] = rs[j], rs[i]
	}
	return rs
}

// MaterialiseRecords writes records to a fresh file and resets the volume's
// I/O counters, so subsequent measurements exclude input construction.
func MaterialiseRecords(e Env, rs []record.Record) (*stream.File[record.Record], error) {
	f, err := stream.FromSlice(e.Vol, e.Pool, record.RecordCodec{}, rs)
	if err != nil {
		return nil, err
	}
	e.Vol.Stats().Reset()
	return f, nil
}

// SortPredicted evaluates the survey's Sort(N) formula in block transfers:
// 2·(N/(D·B))·(1 + ceil(log_{M/B}(N/M))) — one read+write pass over the data
// per merge level including run formation.
func SortPredicted(n, recPerBlock, memBlocks, disks int) float64 {
	nb := float64(n) / float64(recPerBlock)
	m := float64(memBlocks)
	passes := 1.0
	runs := float64(n) / (float64(memBlocks) * float64(recPerBlock))
	if runs > 1 {
		passes += math.Ceil(math.Log(runs) / math.Log(m-1))
	}
	return 2 * nb / float64(disks) * passes
}

// ScanPredicted is Scan(N) = ceil(N/(D·B)) block transfers (read only).
func ScanPredicted(n, recPerBlock, disks int) float64 {
	return math.Ceil(float64(n) / float64(recPerBlock) / float64(disks))
}

// SearchPredicted is Search(N) = ceil(log_B N) block reads.
func SearchPredicted(n, fanout int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Ceil(math.Log(float64(n)) / math.Log(float64(fanout)))
}
