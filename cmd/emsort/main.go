// Command emsort sorts a file of numeric records with the external merge
// sort running on the instrumented Parallel Disk Model, and reports the
// exact block I/Os next to the survey's Sort(N) prediction.
//
// Input is text: one record per line, either "key" or "key value", both
// unsigned 64-bit integers. Output is the sorted records, one per line.
//
// Usage:
//
//	emsort [-block bytes] [-mem blocks] [-disks d] [-dir path] [-algo merge|dist|btree] [-runs load|replsel] [-o out.txt] in.txt
//
// The device shape flags set the model's B (bytes), M/B (frames) and D.
// The sorts read ahead and write behind wherever their plan has the frames
// for it, with the same counted I/Os as on demand. -dir stores the
// model's disks as real files, one per disk, under the given directory —
// same algorithms, same counted I/Os, real files underneath, written with
// pwrite and read through the page cache. With -v the tool prints run
// counts, merge passes, and the I/O ledger.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"em"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "emsort:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		blockBytes = flag.Int("block", 4096, "block size in bytes (the model's B)")
		memBlocks  = flag.Int("mem", 64, "internal memory in blocks (the model's M/B)")
		disks      = flag.Int("disks", 1, "number of disks (the model's D)")
		dir        = flag.String("dir", "", "store each simulated disk as a real file under this directory")
		algo       = flag.String("algo", "merge", "sorting algorithm: merge, dist, or btree")
		runMode    = flag.String("runs", "load", "run formation for merge sort: load or replsel")
		out        = flag.String("o", "", "output file (default stdout)")
		verbose    = flag.Bool("v", false, "print the I/O ledger and device shape")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: emsort [flags] input.txt (see -help)")
	}

	recs, err := readRecords(flag.Arg(0))
	if err != nil {
		return err
	}

	vol, err := em.NewVolume(em.Config{BlockBytes: *blockBytes, MemBlocks: *memBlocks, Disks: *disks, Dir: *dir})
	if err != nil {
		return err
	}
	defer vol.Close()
	pool := em.PoolFor(vol)
	f, err := em.FromSlice(vol, pool, em.RecordCodec{}, recs)
	if err != nil {
		return err
	}
	vol.Stats().Reset()

	opts := &em.SortOptions{Width: *disks}
	switch *runMode {
	case "load":
		opts.RunMode = em.LoadSort
	case "replsel":
		opts.RunMode = em.ReplacementSelection
	default:
		return fmt.Errorf("unknown run mode %q (want load or replsel)", *runMode)
	}

	var sorted *em.File[em.Record]
	switch *algo {
	case "merge":
		sorted, err = em.SortRecords(f, pool, opts)
	case "dist":
		sorted, err = em.DistributionSort(f, pool, em.Record.Less, opts)
	case "btree":
		sorted, err = em.SortViaBTree(f, pool, *memBlocks/2)
	default:
		return fmt.Errorf("unknown algorithm %q (want merge, dist, or btree)", *algo)
	}
	if err != nil {
		return err
	}
	ok, err := em.IsSorted(sorted, pool, em.Record.Less)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("internal error: output not sorted")
	}

	if *verbose {
		per := *blockBytes / 16
		n := len(recs)
		pred := predictSort(n, per, *memBlocks, *disks)
		backend := "memory simulation"
		if *dir != "" {
			backend = "files under " + *dir
		}
		fmt.Fprintf(os.Stderr, "device: B=%d bytes (%d records), M/B=%d frames, D=%d (%s)\n",
			*blockBytes, per, *memBlocks, *disks, backend)
		fmt.Fprintf(os.Stderr, "records: %d  algorithm: %s/%s\n", n, *algo, *runMode)
		fmt.Fprintf(os.Stderr, "I/O: %s (verification scan included)\n", vol.Stats())
		fmt.Fprintf(os.Stderr, "Sort(N) prediction: ~%.0f block transfers\n", pred)
	}

	return writeRecords(*out, sorted, pool)
}

// predictSort evaluates the survey's Sort(N) formula.
func predictSort(n, perBlock, memBlocks, disks int) float64 {
	nb := float64(n) / float64(perBlock)
	passes := 1.0
	runs := float64(n) / (float64(memBlocks) * float64(perBlock))
	if runs > 1 {
		passes += math.Ceil(math.Log(runs) / math.Log(float64(memBlocks-1)))
	}
	return 2 * nb / float64(disks) * passes
}

// readRecords parses "key" or "key value" lines.
func readRecords(path string) ([]em.Record, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var recs []em.Record
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		key, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad key %q: %v", path, line, fields[0], err)
		}
		var val uint64
		if len(fields) > 1 {
			val, err = strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad value %q: %v", path, line, fields[1], err)
			}
		}
		recs = append(recs, em.Record{Key: key, Val: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// writeRecords emits "key value" lines.
func writeRecords(path string, f *em.File[em.Record], pool *em.Pool) error {
	var w *bufio.Writer
	if path == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		fh, err := os.Create(path)
		if err != nil {
			return err
		}
		defer fh.Close()
		w = bufio.NewWriter(fh)
	}
	if err := em.ForEach(f, pool, func(r em.Record) error {
		_, err := fmt.Fprintf(w, "%d %d\n", r.Key, r.Val)
		return err
	}); err != nil {
		return err
	}
	return w.Flush()
}
