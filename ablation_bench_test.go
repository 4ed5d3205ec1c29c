package em

// Ablation benchmarks for the design choices the survey weighs: each
// sweeps one knob of one algorithm and reports counted I/Os, isolating the
// contribution of run formation, striping width, cache size, buffer-tree
// fanout, and memory for the blocked transpose.

import (
	"fmt"
	"math/rand"
	"testing"

	"em/internal/btree"
	"em/internal/buffertree"
	"em/internal/extsort"
	"em/internal/matrix"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

func ablEnv(blockBytes, memBlocks, disks int) (*pdm.Volume, *pdm.Pool) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: blockBytes, MemBlocks: memBlocks, Disks: disks})
	return vol, pdm.PoolFor(vol)
}

func ablRecords(n int) []record.Record {
	rng := rand.New(rand.NewSource(61))
	rs := make([]record.Record, n)
	for i := range rs {
		rs[i] = record.Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	return rs
}

// BenchmarkAblationRunFormation isolates the run-formation choice: total
// merge-sort I/Os with load-sort versus replacement-selection runs. Longer
// runs mean fewer of them, which can save a whole merge pass.
func BenchmarkAblationRunFormation(b *testing.B) {
	for _, mode := range []extsort.RunMode{extsort.LoadSort, extsort.ReplacementSelection} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vol, pool := ablEnv(1024, 8, 1) // tiny memory: passes matter
				f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, ablRecords(1<<15))
				if err != nil {
					b.Fatal(err)
				}
				vol.Stats().Reset()
				out, err := extsort.MergeSort(f, pool, record.Record.Less, &extsort.Options{RunMode: mode})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(vol.Stats().Total()), "ios")
				}
				out.Release()
			}
		})
	}
}

// BenchmarkAblationStripingWidth fixes D=4 disks and sweeps the reader/
// writer striping width: width 1 ignores the parallel disks (steps =
// transfers), width D exploits them. The knob isolates stream-level
// striping from the rest of the sort.
func BenchmarkAblationStripingWidth(b *testing.B) {
	const d = 4
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vol, pool := ablEnv(1024, 32, d)
				f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, ablRecords(1<<15))
				if err != nil {
					b.Fatal(err)
				}
				vol.Stats().Reset()
				out, err := extsort.MergeSort(f, pool, record.Record.Less, &extsort.Options{Width: width})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(vol.Stats().Total()), "ios")
					b.ReportMetric(float64(vol.Stats().Steps), "steps")
				}
				out.Release()
			}
		})
	}
}

// BenchmarkAblationBTreeCache sweeps the B-tree's buffer-manager size for a
// random-insert workload: more cached nodes absorb more path re-reads, the
// classic buffer-pool trade-off.
func BenchmarkAblationBTreeCache(b *testing.B) {
	for _, frames := range []int{3, 8, 16, 32} {
		b.Run(fmt.Sprintf("cache=%d", frames), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vol, pool := ablEnv(1024, 64, 1)
				bt, err := btree.New(vol, pool, frames)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(67))
				vol.Stats().Reset()
				for j := 0; j < 1<<13; j++ {
					if _, err := bt.Insert(rng.Uint64(), uint64(j)); err != nil {
						b.Fatal(err)
					}
				}
				if err := bt.Close(); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(vol.Stats().Total()), "ios")
				}
			}
		})
	}
}

// BenchmarkAblationBufferTreeFanout sweeps the buffer tree's fanout at a
// fixed buffer size: higher fanout means shallower trees but smaller
// per-child flush batches.
func BenchmarkAblationBufferTreeFanout(b *testing.B) {
	for _, fanout := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vol, pool := ablEnv(1024, 32, 1)
				tr, err := buffertree.New(vol, pool, buffertree.Config{Fanout: fanout, BufferRecords: 1024})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(71))
				vol.Stats().Reset()
				for _, k := range rng.Perm(1 << 14) {
					if err := tr.Insert(uint64(k), uint64(k)); err != nil {
						b.Fatal(err)
					}
				}
				out, err := tr.Seal()
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(vol.Stats().Total()), "ios")
				}
				out.Release()
			}
		})
	}
}

// BenchmarkAblationTransposeMemory sweeps the frame budget for the blocked
// transpose of a fixed matrix: larger tiles (√(M·B) on a side) push the
// advantage over the naive walk toward the full factor of B.
func BenchmarkAblationTransposeMemory(b *testing.B) {
	for _, frames := range []int{4, 8, 16, 64} {
		b.Run(fmt.Sprintf("mem=%d", frames), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vol, pool := ablEnv(1024, frames, 1)
				data := make([]float64, 128*128)
				for j := range data {
					data[j] = float64(j)
				}
				m, err := matrix.FromSlice(vol, pool, 128, 128, data)
				if err != nil {
					b.Fatal(err)
				}
				vol.Stats().Reset()
				mt, err := matrix.TransposeBlocked(m, pool)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(vol.Stats().Total()), "ios")
				}
				mt.Release()
				m.Release()
			}
		})
	}
}

// BenchmarkAblationBlockSize sweeps the device's block size for a fixed
// byte volume of data: the survey's point that every bound improves with B
// until memory frames run out.
func BenchmarkAblationBlockSize(b *testing.B) {
	const dataBytes = 1 << 22 // 4 MiB of records
	for _, bb := range []int{512, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("B=%d", bb), func(b *testing.B) {
			n := dataBytes / 16
			for i := 0; i < b.N; i++ {
				vol, pool := ablEnv(bb, 16, 1)
				f, err := stream.FromSlice(vol, pool, record.RecordCodec{}, ablRecords(n))
				if err != nil {
					b.Fatal(err)
				}
				vol.Stats().Reset()
				out, err := extsort.MergeSort(f, pool, record.Record.Less, nil)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(vol.Stats().Total()), "ios")
				}
				out.Release()
			}
		})
	}
}
