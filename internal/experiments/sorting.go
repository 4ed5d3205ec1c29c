package experiments

import (
	"fmt"
	"math"

	"em/internal/extsort"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// T1FundamentalBounds measures the fundamental operations against their
// Θ-formulas: Scan(N), Sort(N), and Search(N) (via B-tree lookups), for a
// sweep of N on the default device shape. Columns report measured block
// I/Os next to the formula's prediction; the shape claim is that the ratio
// measured/predicted stays bounded by a small constant as N grows 16-fold.
func T1FundamentalBounds(ns []int) (*Table, error) {
	t := &Table{
		ID:    "T1",
		Title: "fundamental bounds: Scan, Sort, Search vs Θ-formulas",
		Notes: "measured/predicted ratio stays within a small constant across the sweep",
	}
	for _, n := range ns {
		e := DefaultEnv()
		defer e.Close()
		per := e.Vol.BlockBytes() / (record.RecordCodec{}).Size()
		f, err := MaterialiseRecords(e, RandomRecords(42, n))
		if err != nil {
			return nil, err
		}

		// Scan.
		e.Vol.Stats().Reset()
		count := 0
		if err := stream.ForEach(f, e.Pool, func(record.Record) error { count++; return nil }); err != nil {
			return nil, err
		}
		scanIOs := float64(e.Vol.Stats().Total())

		// Sort.
		e.Vol.Stats().Reset()
		sorted, err := extsort.MergeSort(f, e.Pool, record.Record.Less, nil)
		if err != nil {
			return nil, err
		}
		sortIOs := float64(e.Vol.Stats().Total())

		// Search: build a B-tree by bulk load, then measure 100 point
		// lookups with a cold cache each time.
		bt, err := bulkLoadFromSorted(e, sorted)
		if err != nil {
			return nil, err
		}
		probes, err := coldLookupCost(e, bt, 100)
		if err != nil {
			return nil, err
		}

		r := Row{
			Label: fmt.Sprintf("N=%d", n),
			Cells: map[string]float64{
				"scan":       scanIOs,
				"scanPred":   ScanPredicted(n, per, 1),
				"sort":       sortIOs,
				"sortPred":   SortPredicted(n, per, e.Pool.Capacity(), 1),
				"search":     probes,
				"searchPred": SearchPredicted(n, bt.Fanout()),
			},
			Order: []string{"scan", "scanPred", "sort", "sortPred", "search", "searchPred"},
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}

// T2SortingAlgorithms compares the three sorting strategies the survey
// tabulates: multiway merge sort and distribution sort (both Sort(N)) versus
// B-tree insertion sort (Θ(N·log_B N) — worse by roughly B/log m).
func T2SortingAlgorithms(ns []int) (*Table, error) {
	t := &Table{
		ID:    "T2",
		Title: "sorting: merge ≈ distribution ≈ Sort(N); B-tree insertion loses by ~B/log m",
		Notes: "merge and distribution within 2x of each other; btree ≥ 5x worse at the largest N",
	}
	for _, n := range ns {
		e := DefaultEnv()
		defer e.Close()
		rs := RandomRecords(7, n)

		f, err := MaterialiseRecords(e, rs)
		if err != nil {
			return nil, err
		}
		e.Vol.Stats().Reset()
		ms, err := extsort.MergeSort(f, e.Pool, record.Record.Less, nil)
		if err != nil {
			return nil, err
		}
		mergeIOs := float64(e.Vol.Stats().Total())
		ms.Release()

		e.Vol.Stats().Reset()
		ds, err := extsort.DistributionSort(f, e.Pool, record.Record.Less, nil)
		if err != nil {
			return nil, err
		}
		distIOs := float64(e.Vol.Stats().Total())
		ds.Release()

		e.Vol.Stats().Reset()
		bs, err := extsort.SortViaBTree(f, e.Pool, e.Pool.Capacity()/2)
		if err != nil {
			return nil, err
		}
		btreeIOs := float64(e.Vol.Stats().Total())
		bs.Release()

		per := e.Vol.BlockBytes() / (record.RecordCodec{}).Size()
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("N=%d", n),
			Cells: map[string]float64{
				"merge":    mergeIOs,
				"dist":     distIOs,
				"btree":    btreeIOs,
				"sortPred": SortPredicted(n, per, e.Pool.Capacity(), 1),
			},
			Order: []string{"merge", "dist", "btree", "sortPred"},
		})
	}
	return t, nil
}

// F1MergePassesVsMemory fixes N and sweeps the merge fan-in (the effective
// M/B), checking that the number of merge passes tracks
// ceil(log_fanin(initial runs)) — the figure-shaped claim that memory
// buys logarithmically fewer passes.
func F1MergePassesVsMemory(n int, fanins []int) (*Table, error) {
	t := &Table{
		ID:    "F1",
		Title: "merge passes shrink as ceil(log_m(N/M)) while memory grows",
		Notes: "measured passes equal predicted passes, less a lone tail run carried up a level uncopied",
	}
	for _, fanin := range fanins {
		e := NewEnv(1024, 512, 1) // merge memory is ample; ForceFanIn is the knob
		defer e.Close()
		rs := RandomRecords(3, n)
		f, err := MaterialiseRecords(e, rs)
		if err != nil {
			return nil, err
		}
		// Form runs with a deliberately small separate budget (8 frames) so
		// the sweep starts from many initial runs; the fan-in knob then
		// models the memory available to the merge phase.
		runPool := pdm.NewPool(e.Vol.BlockBytes(), 8)
		opts := &extsort.Options{ForceFanIn: fanin}
		runs, err := extsort.FormRuns(f, runPool, record.Record.Less, opts)
		if err != nil {
			return nil, err
		}
		nRuns := len(runs)
		e.Vol.Stats().Reset()
		out, err := extsort.MergeRuns(runs, e.Pool, record.Record.Less, opts)
		if err != nil {
			return nil, err
		}
		mergeIOs := float64(e.Vol.Stats().Total())
		out.Release()

		per := e.Vol.BlockBytes() / (record.RecordCodec{}).Size()
		blocks := float64(n) / float64(per)
		// One pass reads and writes every block once: 2·N/B I/Os.
		measuredPasses := mergeIOs / (2 * blocks)
		predicted := float64(extsort.MergePassCount(nRuns, fanin))
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("fanin=%d", fanin),
			Cells: map[string]float64{
				"runs":     float64(nRuns),
				"passes":   measuredPasses,
				"passPred": predicted,
				"mergeIOs": mergeIOs,
			},
			Order: []string{"runs", "passes", "passPred", "mergeIOs"},
		})
	}
	return t, nil
}

// F2RunFormation compares run formation techniques: replacement selection
// yields runs of expected length 2M on random input (vs exactly M for
// load-sort) and a single run on nearly sorted input.
func F2RunFormation(n int) (*Table, error) {
	t := &Table{
		ID:    "F2",
		Title: "replacement selection doubles run length on random input; one run when nearly sorted",
		Notes: "runLen/M ≈ 1 for load-sort, ≈ 2 for replacement on random, ≫ 2 nearly-sorted",
	}
	type variant struct {
		label string
		mode  extsort.RunMode
		data  []record.Record
	}
	variants := []variant{
		{"load-sort/random", extsort.LoadSort, RandomRecords(5, n)},
		{"replsel/random", extsort.ReplacementSelection, RandomRecords(5, n)},
		{"load-sort/90%sorted", extsort.LoadSort, NearlySortedRecords(5, n, 0.1)},
		{"replsel/90%sorted", extsort.ReplacementSelection, NearlySortedRecords(5, n, 0.1)},
	}
	for _, v := range variants {
		e := DefaultEnv()
		defer e.Close()
		f, err := MaterialiseRecords(e, v.data)
		if err != nil {
			return nil, err
		}
		runs, err := extsort.FormRuns(f, e.Pool, record.Record.Less, &extsort.Options{RunMode: v.mode})
		if err != nil {
			return nil, err
		}
		var total int64
		for _, r := range runs {
			total += r.Len()
			r.Release()
		}
		per := e.Vol.BlockBytes() / (record.RecordCodec{}).Size()
		mRecords := float64(e.Pool.Capacity() * per)
		avgLen := float64(total) / float64(len(runs))
		t.Rows = append(t.Rows, Row{
			Label: v.label,
			Cells: map[string]float64{
				"runs":     float64(len(runs)),
				"avgLen":   avgLen,
				"lenOverM": avgLen / mRecords,
			},
			Order: []string{"runs", "avgLen", "lenOverM"},
		})
	}
	return t, nil
}

// F3DiskStriping sweeps the disk count D: scanning speeds up by ×D in
// parallel steps, and striped merge sort keeps total block I/Os constant
// while parallel steps fall — but its effective merge arity drops from
// M/B to M/(D·B), the log(m)/log(m/D) wasted factor the survey derives.
func F3DiskStriping(n int, disks []int) (*Table, error) {
	t := &Table{
		ID:    "F3",
		Title: "disk striping: Scan steps fall ×D; striped sort pays reduced merge arity",
		Notes: "scanSteps ≈ scanSteps(D=1)/D; sort block I/Os flat, steps fall ~×D",
	}
	for _, d := range disks {
		e := NewEnv(1024, 32, d)
		defer e.Close()
		rs := RandomRecords(11, n)
		f, err := MaterialiseRecords(e, rs)
		if err != nil {
			return nil, err
		}

		// Striped scan with width D.
		e.Vol.Stats().Reset()
		r, err := stream.NewStripedReader(f, e.Pool, d)
		if err != nil {
			return nil, err
		}
		for {
			_, ok, err := r.Next()
			if err != nil {
				r.Close()
				return nil, err
			}
			if !ok {
				break
			}
		}
		r.Close()
		scanReads := float64(e.Vol.Stats().Reads)
		scanSteps := float64(e.Vol.Stats().Steps)

		// Striped merge sort with width D.
		e.Vol.Stats().Reset()
		out, err := extsort.MergeSort(f, e.Pool, record.Record.Less, &extsort.Options{Width: d})
		if err != nil {
			return nil, err
		}
		sortIOs := float64(e.Vol.Stats().Total())
		sortSteps := float64(e.Vol.Stats().Steps)
		out.Release()

		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("D=%d", d),
			Cells: map[string]float64{
				"scanReads": scanReads,
				"scanSteps": scanSteps,
				"sortIOs":   sortIOs,
				"sortSteps": sortSteps,
			},
			Order: []string{"scanReads", "scanSteps", "sortIOs", "sortSteps"},
		})
	}
	return t, nil
}

// ratio returns a/b guarding against division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}
