package stream

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"em/internal/pdm"
	"em/internal/record"
)

// depthVolume opens a fresh volume of shape cfg, file-backed when file is
// set, closed when the test ends.
func depthVolume(t *testing.T, cfg pdm.Config, file bool) *pdm.Volume {
	t.Helper()
	if file {
		cfg.Dir = t.TempDir()
	}
	vol := pdm.MustVolume(cfg)
	t.Cleanup(func() { vol.Close() })
	return vol
}

// depthOf returns the OpenSource/OpenSink depth of a stream on demand
// (false) or ahead/behind (true).
func depthOf(overlap bool) int {
	if overlap {
		return 2
	}
	return 1
}

// depthRun is what one depth produced: the records read back, the file's
// block layout and the volume's counters over the whole run.
type depthRun struct {
	out    []record.Record
	layout []int64
	stats  pdm.Stats
}

// runDepth writes prefill, appends vs through a width-w writer at the
// given depth, and reads the file back through a reader at the same depth,
// checking the frames each stream holds while open and that every frame is
// back in the pool after each Close.
func runDepth(t *testing.T, vol *pdm.Volume, width int, overlap bool, prefill, vs []record.Record) depthRun {
	t.Helper()
	pool := pdm.PoolFor(vol)
	free := pool.Free()
	held := width
	if overlap {
		held = 2 * width
	}
	f, err := FromSlice(vol, pool, record.RecordCodec{}, prefill)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenSink(f, pool, width, depthOf(overlap))
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.InUse(); got != held {
		t.Fatalf("open writer holds %d frames, want %d", got, held)
	}
	for _, v := range vs {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Free(); got != free {
		t.Fatalf("after writer Close: %d free frames, want %d", got, free)
	}
	r, err := OpenSource(f, pool, width, depthOf(overlap))
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.InUse(); got != held {
		t.Fatalf("open reader holds %d frames, want %d", got, held)
	}
	var out []record.Record
	if err := Drain[record.Record](r, func(v record.Record) error {
		out = append(out, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if got := pool.Free(); got != free {
		t.Fatalf("after reader Close: %d free frames, want %d", got, free)
	}
	return depthRun{out: out, layout: append([]int64(nil), BlockAddrs(f)...), stats: vol.Stats().Snapshot()}
}

// TestStreamDepthsAgree checks that depth changes only when batches are
// issued: across widths, both backends, lengths at and around the group
// boundaries, and appends to a partially filled tail block, the on-demand
// and the ahead/behind streams return the same records, lay the file out
// identically and charge byte-identical Stats.
func TestStreamDepthsAgree(t *testing.T) {
	cfg := pdm.Config{BlockBytes: 64, MemBlocks: 32, Disks: 4}
	const per = 4 // 16-byte records in 64-byte blocks
	const groups = 3
	for _, width := range []int{1, 2, 4} {
		group := per * width
		for _, n := range []int{0, per - 1, groups * group, groups*group + 1} {
			for _, tail := range []int{0, per / 2} {
				for _, file := range []bool{false, true} {
					name := fmt.Sprintf("w%d/n%d/tail%d/file=%v", width, n, tail, file)
					t.Run(name, func(t *testing.T) {
						prefill, vs := genRecords(tail), genRecords(n)
						want := append(append([]record.Record{}, prefill...), vs...)
						demand := runDepth(t, depthVolume(t, cfg, file), width, false, prefill, vs)
						ahead := runDepth(t, depthVolume(t, cfg, file), width, true, prefill, vs)
						for _, run := range []depthRun{demand, ahead} {
							if len(run.out) != len(want) {
								t.Fatalf("read %d records, want %d", len(run.out), len(want))
							}
							for i := range want {
								if run.out[i] != want[i] {
									t.Fatalf("record %d differs", i)
								}
							}
						}
						if !reflect.DeepEqual(demand.layout, ahead.layout) {
							t.Fatalf("layouts differ: on demand %v, ahead %v", demand.layout, ahead.layout)
						}
						if !reflect.DeepEqual(demand.stats, ahead.stats) {
							t.Fatalf("stats differ: on demand %+v, ahead %+v", demand.stats, ahead.stats)
						}
					})
				}
			}
		}
	}
}

// TestReaderOpensOnDemandLazily pins the early-close cost of each depth: a
// reader on demand dispatches nothing until its first Next, so closing it
// unread costs no I/O; a reader opened ahead has its first group in flight.
func TestReaderOpensOnDemandLazily(t *testing.T) {
	vol, pool := asyncTestVol(0)
	f, err := FromSlice(vol, pool, record.RecordCodec{}, genRecords(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		overlap bool
		reads   uint64
	}{{false, 0}, {true, 2}} {
		vol.Stats().Reset()
		r, err := OpenSource(f, pool, 2, depthOf(c.overlap))
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if got := vol.Stats().Snapshot().Reads; got != c.reads {
			t.Fatalf("ahead=%v: closing unread cost %d reads, want %d", c.overlap, got, c.reads)
		}
	}
}

// TestStreamDepthsCrash crashes the volume mid-flush and mid-fetch at both
// depths: the error must surface through Append/Close or Next, Close must
// return every frame exactly once, and a second Close must be harmless.
func TestStreamDepthsCrash(t *testing.T) {
	const per, groups = 4, 5
	for _, width := range []int{1, 2, 4} {
		for _, overlap := range []bool{false, true} {
			vs := genRecords(groups * per * width)
			t.Run(fmt.Sprintf("w%d/ahead=%v/flush", width, overlap), func(t *testing.T) {
				// Two groups land; the third flush hits the crash point.
				vol := depthVolume(t, pdm.Config{BlockBytes: 64, MemBlocks: 32, Disks: 4,
					DiskLatency: 5 * time.Microsecond, Fault: &pdm.FaultPlan{Seed: 1, FailAfter: int64(2 * width)}}, false)
				pool := pdm.PoolFor(vol)
				free := pool.Free()
				w, err := OpenSink(NewFile[record.Record](vol, record.RecordCodec{}), pool, width, depthOf(overlap))
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vs {
					if err = w.Append(v); err != nil {
						break
					}
				}
				if cerr := w.Close(); err == nil {
					err = cerr
				}
				if !errors.Is(err, pdm.ErrFaulted) {
					t.Fatalf("crashed write reported %v, want ErrFaulted", err)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
				if got := pool.Free(); got != free {
					t.Fatalf("after Close: %d free frames, want %d", got, free)
				}
			})
			t.Run(fmt.Sprintf("w%d/ahead=%v/fetch", width, overlap), func(t *testing.T) {
				// The file's writes and two groups of reads land; the third
				// group's fetch hits the crash point.
				blocks := groups * width
				vol := depthVolume(t, pdm.Config{BlockBytes: 64, MemBlocks: 32, Disks: 4,
					DiskLatency: 5 * time.Microsecond, Fault: &pdm.FaultPlan{Seed: 1, FailAfter: int64(blocks + 2*width)}}, false)
				pool := pdm.PoolFor(vol)
				free := pool.Free()
				f, err := FromSlice(vol, pool, record.RecordCodec{}, vs)
				if err != nil {
					t.Fatal(err)
				}
				r, err := OpenSource(f, pool, width, depthOf(overlap))
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for {
					var ok bool
					if _, ok, err = r.Next(); err != nil || !ok {
						break
					}
					n++
				}
				if !errors.Is(err, pdm.ErrFaulted) {
					t.Fatalf("crashed read reported %v after %d records, want ErrFaulted", err, n)
				}
				if n != 2*per*width {
					t.Fatalf("crash surfaced after %d records, want %d", n, 2*per*width)
				}
				r.Close()
				r.Close()
				if got := pool.Free(); got != free {
					t.Fatalf("after Close: %d free frames, want %d", got, free)
				}
			})
		}
	}
}
