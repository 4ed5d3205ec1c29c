package stream

import (
	"math/rand"
	"slices"

	"em/internal/pdm"
)

// SampleBlocks returns every record of nBlocks distinct blocks of f, drawn
// uniformly from rng — or of as many as pool has free frames, or all of f,
// whichever is fewest. It is the random sample both sampled-splitter sites
// (the distribution sort's partitioning elements and the distribution
// sweep's slab boundaries) pick their approximate quantiles from: a block
// is the unit a transfer moves, so a sample of whole blocks costs one read
// each where a record-level reservoir costs a scan of f.
//
// The blocks are read in file order as one BatchRead through one free
// frame each, and the records, a short last block honoured, are returned
// in block order once the frames are back in the pool. The sample is thus
// never larger than memory the pool has free; a caller that chooses its
// splitters before allocating again keeps it inside the budget M.
func SampleBlocks[T any](f *File[T], pool *pdm.Pool, nBlocks int, rng *rand.Rand) ([]T, error) {
	picks := pickBlocks(len(f.blocks), max(1, min(nBlocks, pool.Free())), rng)
	if len(picks) == 0 {
		return nil, nil
	}
	frames, err := pool.AllocN(len(picks))
	if err != nil {
		return nil, err
	}
	defer pdm.ReleaseAll(frames)
	addrs := make([]int64, len(picks))
	for i, b := range picks {
		addrs[i] = f.blocks[b]
	}
	if err := f.vol.BatchRead(addrs, groupBufs(make([][]byte, len(frames)), frames, len(frames))); err != nil {
		return nil, err
	}
	per, size := f.PerBlock(), f.codec.Size()
	out := make([]T, 0, len(picks)*per)
	for i, b := range picks {
		n := min(int64(per), f.n-int64(b)*int64(per))
		for j := 0; j < int(n); j++ {
			out = append(out, f.codec.Decode(frames[i].Buf[j*size:]))
		}
	}
	return out, nil
}

// pickBlocks draws k distinct indices from [0, n) by Floyd's method — k
// draws from rng whatever n is — and returns them ascending; k >= n picks
// every index.
func pickBlocks(n, k int, rng *rand.Rand) []int {
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	picked := make(map[int]bool, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if picked[t] {
			t = j
		}
		picked[t] = true
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}
