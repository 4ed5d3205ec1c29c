package extsort

import (
	"fmt"
	"slices"
	"testing"

	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// golden is one cell's counted outcome: the pass's block reads, block
// writes and parallel steps, and the peak of the pool it ran on.
type golden struct {
	reads, writes, steps uint64
	peak                 int
}

// goldenGrid pins every cell TestGoldenCountedGrid runs, keyed by pass,
// width, forced fan-in and pool capacity. A change to a frame rule that
// moves any of them has changed which streams a pass opens, or how deep.
var goldenGrid = map[string]golden{
	"merge/load-sort/w1/f0/c7":              {1000, 1000, 2000, 7},
	"merge/load-sort/w1/f0/c8":              {750, 750, 1500, 8},
	"merge/load-sort/w1/f0/c16":             {750, 750, 1500, 16},
	"merge/replacement-selection/w1/f0/c7":  {756, 756, 1512, 7},
	"merge/replacement-selection/w1/f0/c8":  {768, 768, 1536, 8},
	"merge/replacement-selection/w1/f0/c16": {503, 503, 1006, 16},
	"dist/w1/f0/c6":                         {1468, 1256, 2629, 6},
	"dist/w1/f0/c7":                         {1198, 1074, 2222, 7},
	"dist/w1/f0/c8":                         {1198, 1074, 2216, 8},
	"dist/w1/f0/c16":                        {959, 791, 1650, 16},
	"index/w1/f0/c11":                       {1468, 1316, 2694, 11},
	"index/w1/f0/c12":                       {1198, 1134, 2275, 12},
	"index/w1/f0/c20":                       {959, 851, 1712, 20},
	"merge/load-sort/w1/f3/c7":              {1250, 1250, 2500, 7},
	"merge/load-sort/w1/f3/c8":              {1250, 1250, 2500, 8},
	"merge/load-sort/w1/f3/c16":             {1000, 1000, 2000, 16},
	"merge/replacement-selection/w1/f3/c7":  {1008, 1008, 2016, 7},
	"merge/replacement-selection/w1/f3/c8":  {1022, 1022, 2044, 8},
	"merge/replacement-selection/w1/f3/c16": {994, 994, 1988, 16},
	"dist/w1/f3/c6":                         {1462, 1302, 2690, 6},
	"dist/w1/f3/c7":                         {1462, 1302, 2690, 7},
	"dist/w1/f3/c8":                         {1462, 1302, 2690, 8},
	"dist/w1/f3/c16":                        {1174, 1018, 2096, 16},
	"index/w1/f3/c11":                       {1462, 1362, 2753, 11},
	"index/w1/f3/c12":                       {1462, 1362, 2746, 12},
	"index/w1/f3/c20":                       {1174, 1078, 2160, 20},
	"load/w1/c7":                            {250, 306, 556, 7},
	"load/w1/c8":                            {250, 306, 556, 8},
	"load/w1/c12":                           {250, 306, 556, 8},
	"merge/load-sort/w2/f0/c15":             {750, 750, 772, 15},
	"merge/load-sort/w2/f0/c16":             {750, 750, 750, 16},
	"merge/load-sort/w2/f0/c32":             {500, 500, 500, 32},
	"merge/replacement-selection/w2/f0/c15": {757, 757, 760, 15},
	"merge/replacement-selection/w2/f0/c16": {755, 755, 760, 16},
	"merge/replacement-selection/w2/f0/c32": {503, 503, 506, 32},
	"dist/w2/f0/c13":                        {1227, 1038, 1164, 13},
	"dist/w2/f0/c15":                        {1273, 1041, 1187, 15},
	"dist/w2/f0/c16":                        {1309, 1061, 1213, 16},
	"dist/w2/f0/c32":                        {529, 505, 523, 32},
	"index/w2/f0/c19":                       {1227, 1098, 1221, 19},
	"index/w2/f0/c20":                       {1309, 1121, 1269, 20},
	"index/w2/f0/c36":                       {529, 565, 573, 36},
	"merge/load-sort/w2/f3/c15":             {1000, 1000, 1032, 15},
	"merge/load-sort/w2/f3/c16":             {966, 966, 966, 16},
	"merge/load-sort/w2/f3/c32":             {750, 750, 750, 32},
	"merge/replacement-selection/w2/f3/c15": {965, 965, 970, 15},
	"merge/replacement-selection/w2/f3/c16": {965, 965, 972, 16},
	"merge/replacement-selection/w2/f3/c32": {754, 754, 758, 32},
	"dist/w2/f3/c13":                        {1507, 1228, 1346, 13},
	"dist/w2/f3/c15":                        {1397, 1181, 1298, 15},
	"dist/w2/f3/c16":                        {1613, 1293, 1479, 16},
	"dist/w2/f3/c32":                        {1104, 948, 1031, 28},
	"index/w2/f3/c19":                       {1507, 1288, 1397, 19},
	"index/w2/f3/c20":                       {1613, 1353, 1537, 20},
	"index/w2/f3/c36":                       {1104, 1008, 1077, 32},
	"load/w2/c11":                           {250, 306, 293, 10},
	"load/w2/c12":                           {250, 306, 293, 12},
	"load/w2/c20":                           {250, 306, 293, 12},
	"merge/load-sort/w4/f0/c31":             {750, 750, 382, 31},
	"merge/load-sort/w4/f0/c32":             {750, 750, 378, 32},
	"merge/load-sort/w4/f0/c64":             {500, 500, 252, 64},
	"merge/replacement-selection/w4/f0/c31": {753, 753, 386, 31},
	"merge/replacement-selection/w4/f0/c32": {502, 502, 254, 32},
	"merge/replacement-selection/w4/f0/c64": {502, 502, 256, 64},
	"dist/w4/f0/c27":                        {841, 761, 426, 25},
	"dist/w4/f0/c31":                        {812, 764, 429, 28},
	"dist/w4/f0/c32":                        {812, 764, 429, 32},
	"dist/w4/f0/c64":                        {529, 505, 273, 64},
	"index/w4/f0/c35":                       {841, 821, 475, 33},
	"index/w4/f0/c36":                       {812, 824, 488, 36},
	"index/w4/f0/c68":                       {529, 565, 324, 68},
	"merge/load-sort/w4/f3/c31":             {957, 957, 490, 31},
	"merge/load-sort/w4/f3/c32":             {966, 966, 486, 32},
	"merge/load-sort/w4/f3/c64":             {750, 750, 378, 64},
	"merge/replacement-selection/w4/f3/c31": {753, 753, 386, 31},
	"merge/replacement-selection/w4/f3/c32": {752, 752, 380, 32},
	"merge/replacement-selection/w4/f3/c64": {502, 502, 256, 64},
	"dist/w4/f3/c27":                        {1174, 1018, 610, 20},
	"dist/w4/f3/c31":                        {1124, 1020, 595, 23},
	"dist/w4/f3/c32":                        {1124, 1020, 595, 27},
	"dist/w4/f3/c64":                        {803, 755, 406, 46},
	"index/w4/f3/c35":                       {1174, 1078, 667, 28},
	"index/w4/f3/c36":                       {1124, 1080, 660, 31},
	"index/w4/f3/c68":                       {803, 815, 454, 50},
	"load/w4/c19":                           {250, 306, 169, 16},
	"load/w4/c20":                           {250, 306, 170, 20},
	"load/w4/c36":                           {250, 306, 169, 20},
}

// TestGoldenCountedGrid runs MergeSort in both run modes,
// DistributionSort, SortIndex and BulkLoad across widths 1, 2 and 4, with
// and without a forced fan-in, on pools one frame below each pass's
// depth-2 threshold, exactly at it, and roomy, on the mem and file
// backends. Each cell must produce the sorted input (or the tree over it)
// and exactly the pinned counters and pool peak, which also makes the two
// backends agree.
//
// The thresholds, in frames of capacity at width w:
//   - MergeSort: 8w, where a forced three-run merge group fits at 2w per
//     stream (its tail groups decide depth at any fan-in);
//   - DistributionSort: 8w, where the output writer and then every
//     level's three streams fit at 2w; 7w − 1 leaves the levels below it;
//   - SortIndex: the loader's budget plus 6w;
//   - BulkLoad: the loader's budget plus 2w for a reader ahead.
func TestGoldenCountedGrid(t *testing.T) {
	const (
		blockBytes  = 256
		n           = 4000
		cacheFrames = 4
	)
	// Distinct keys in scrambled order: an odd multiplier is a bijection
	// mod 2^64, and wrapping scatters the products.
	vs := make([]record.Record, n)
	for i := range vs {
		vs[i] = record.Record{Key: uint64(i) * 0x9E3779B97F4A7C15, Val: uint64(i)}
	}
	want := sortedCopy(vs)
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			cfg := pdm.Config{BlockBytes: blockBytes, MemBlocks: 8, Disks: 4}
			if backend == "file" {
				cfg.Dir = t.TempDir()
			}
			vol := pdm.MustVolume(cfg)
			defer vol.Close()
			build := pdm.PoolFor(vol)
			input, err := stream.FromSlice(vol, build, record.RecordCodec{}, vs)
			if err != nil {
				t.Fatal(err)
			}
			sorted, err := stream.FromSlice(vol, build, record.RecordCodec{}, want)
			if err != nil {
				t.Fatal(err)
			}
			// check runs one cell's pass on a fresh pool of capacity frames,
			// compares its counters and peak with the grid's, then reads the
			// result back through readBack, which releases it.
			check := func(name string, capacity int, pass func(pool *pdm.Pool) (readBack func() ([]record.Record, error), err error)) {
				t.Helper()
				pool := pdm.NewPool(blockBytes, capacity)
				vol.Stats().Reset()
				readBack, err := pass(pool)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				st := vol.Stats().Snapshot()
				cell := golden{st.Reads, st.Writes, st.Steps, pool.Peak()}
				if g, ok := goldenGrid[name]; !ok || g != cell {
					t.Errorf("%s: got %v, pinned %v\n\t%q: {%d, %d, %d, %d},", name, cell, g,
						name, cell.reads, cell.writes, cell.steps, cell.peak)
				}
				got, err := readBack()
				if err != nil {
					t.Errorf("%s: read back: %v", name, err)
				} else if !slices.Equal(got, want) {
					t.Errorf("%s: output is not the sorted input", name)
				}
				if pool.InUse() != 0 {
					t.Errorf("%s: leaked %d frames", name, pool.InUse())
				}
			}
			// file reads a sorted output back and releases it.
			file := func(out *stream.File[record.Record], err error) (func() ([]record.Record, error), error) {
				return func() ([]record.Record, error) {
					defer out.Release()
					return stream.ToSlice(out, pdm.PoolFor(vol))
				}, err
			}
			// tree scans a built tree back, then releases its blocks and
			// its cache frames.
			tree := func(tr *btree.Tree, err error) (func() ([]record.Record, error), error) {
				return func() ([]record.Record, error) {
					var got []record.Record
					err := tr.Range(0, ^uint64(0), func(k, v uint64) error {
						got = append(got, record.Record{Key: k, Val: v})
						return nil
					})
					if rerr := tr.Release(); err == nil {
						err = rerr
					}
					return got, err
				}, err
			}
			for _, w := range []int{1, 2, 4} {
				loader := cacheFrames + 2*w
				for _, fanIn := range []int{0, 3} {
					opts := &Options{Width: w, ForceFanIn: fanIn}
					for _, mode := range []RunMode{LoadSort, ReplacementSelection} {
						ms := &Options{Width: w, ForceFanIn: fanIn, RunMode: mode}
						for _, c := range []int{8*w - 1, 8 * w, 16 * w} {
							check(fmt.Sprintf("merge/%v/w%d/f%d/c%d", mode, w, fanIn, c), c, func(pool *pdm.Pool) (func() ([]record.Record, error), error) {
								return file(MergeSort(input, pool, record.Record.Less, ms))
							})
						}
					}
					for _, c := range []int{7*w - 1, 8*w - 1, 8 * w, 16 * w} {
						check(fmt.Sprintf("dist/w%d/f%d/c%d", w, fanIn, c), c, func(pool *pdm.Pool) (func() ([]record.Record, error), error) {
							return file(DistributionSort(input, pool, record.Record.Less, opts))
						})
					}
					for _, c := range []int{loader + 6*w - 1, loader + 6*w, loader + 14*w} {
						check(fmt.Sprintf("index/w%d/f%d/c%d", w, fanIn, c), c, func(pool *pdm.Pool) (func() ([]record.Record, error), error) {
							return tree(SortIndex(input, pool, cacheFrames, opts))
						})
					}
				}
				for _, c := range []int{loader + 2*w - 1, loader + 2*w, loader + 6*w} {
					check(fmt.Sprintf("load/w%d/c%d", w, c), c, func(pool *pdm.Pool) (func() ([]record.Record, error), error) {
						return tree(btree.BulkLoad(vol, pool, cacheFrames, sorted, &btree.BulkLoadOptions{Width: w}))
					})
				}
			}
		})
	}
}
