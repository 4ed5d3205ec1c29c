//go:build goexperiment.synctest

package pdm

// Model time, asserted exactly. Inside a synctest bubble the clock moves
// only when every goroutine in the bubble is blocked, so a transfer's wait
// lasts exactly its reserved service time and compute costs nothing. Run
// with `make modeltime` (GOEXPERIMENT=synctest).

import (
	"sort"
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

const modelLatency = 2 * time.Millisecond

// modelVolume builds a latency volume with n allocated blocks. Call it
// inside the bubble, so the volume's Close channel and timers belong to it.
func modelVolume(disks int, n int) (*Volume, int64, [][]byte) {
	v := MustVolume(Config{BlockBytes: 64, MemBlocks: 8, Disks: disks, DiskLatency: modelLatency})
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	return v, v.Alloc(n), bufs
}

// span returns the n addresses base, base+1, ….
func span(base int64, n int) []int64 {
	addrs := make([]int64, n)
	for i := range addrs {
		addrs[i] = base + int64(i)
	}
	return addrs
}

// TestModelTimeSyncBatch: a synchronous batch takes exactly its parallel
// steps times DiskLatency — 8 blocks on 4 disks are 2 steps, on 1 disk 8.
func TestModelTimeSyncBatch(t *testing.T) {
	for _, disks := range []int{1, 4} {
		synctest.Run(func() {
			v, base, bufs := modelVolume(disks, 8)
			defer v.Close()
			start := time.Now()
			if err := v.BatchWrite(span(base, 8), bufs); err != nil {
				t.Fatal(err)
			}
			steps := v.Stats().Steps
			if got, want := time.Since(start), time.Duration(steps)*modelLatency; got != want || steps != uint64(8/disks) {
				t.Errorf("D=%d: batch took %v at %d steps, want exactly %v at %d", disks, got, steps, want, 8/disks)
			}
		})
	}
}

// TestModelTimeAsyncWait: an async dispatch returns after zero elapsed
// time, and Wait on its deadline returns exactly at the reservation.
func TestModelTimeAsyncWait(t *testing.T) {
	synctest.Run(func() {
		v, base, bufs := modelVolume(2, 6)
		defer v.Close()
		start := time.Now()
		deadline, err := v.BatchReadAsync(span(base, 6), bufs)
		if err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el != 0 {
			t.Errorf("dispatch took %v of model time, want 0", el)
		}
		v.Wait(deadline)
		if got, want := time.Since(start), 3*modelLatency; got != want {
			t.Errorf("Wait returned at %v, want exactly %v", got, want)
		}
	})
}

// TestModelTimeQueueOnOneDisk: two goroutines' batches on one disk queue on
// its timeline, so one batch lands at 1× its service time and the other at
// exactly 2×.
func TestModelTimeQueueOnOneDisk(t *testing.T) {
	const k = 4
	synctest.Run(func() {
		v := MustVolume(Config{BlockBytes: 64, MemBlocks: 8, Disks: 1, DiskLatency: modelLatency})
		defer v.Close()
		start := time.Now()
		var (
			mu   sync.Mutex
			ends []time.Duration
			wg   sync.WaitGroup
		)
		for g := 0; g < 2; g++ {
			base := v.Alloc(k)
			wg.Add(1)
			go func() {
				defer wg.Done()
				bufs := make([][]byte, k)
				for i := range bufs {
					bufs[i] = make([]byte, 64)
				}
				if err := v.BatchWrite(span(base, k), bufs); err != nil {
					t.Error(err)
				}
				mu.Lock()
				ends = append(ends, time.Since(start))
				mu.Unlock()
			}()
		}
		wg.Wait()
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		if want := []time.Duration{k * modelLatency, 2 * k * modelLatency}; len(ends) != 2 || ends[0] != want[0] || ends[1] != want[1] {
			t.Errorf("batches landed at %v, want exactly %v", ends, want)
		}
	})
}

// TestModelTimeSingleBlock: ReadBlock and WriteBlock take exactly one
// DiskLatency each.
func TestModelTimeSingleBlock(t *testing.T) {
	synctest.Run(func() {
		v, base, bufs := modelVolume(2, 1)
		defer v.Close()
		start := time.Now()
		if err := v.WriteBlock(base, bufs[0]); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got != modelLatency {
			t.Errorf("WriteBlock took %v, want exactly %v", got, modelLatency)
		}
		if err := v.ReadBlock(base, bufs[0]); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got != 2*modelLatency {
			t.Errorf("WriteBlock+ReadBlock took %v, want exactly %v", got, 2*modelLatency)
		}
	})
}

// TestModelTimeCloseCutsWait: Close during a Wait that is sleeping out its
// reservation returns at once, and so does the Wait — the batch's bytes
// moved, and its error was decided, at dispatch.
func TestModelTimeCloseCutsWait(t *testing.T) {
	synctest.Run(func() {
		v, base, bufs := modelVolume(1, 8)
		start := time.Now()
		deadline, err := v.BatchWriteAsync(span(base, 8), bufs)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { v.Wait(deadline); close(done) }()
		synctest.Wait() // the Wait is now asleep on its 8-step reservation
		if err := v.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		if el := time.Since(start); el != 0 {
			t.Errorf("Close and the Wait took %v of model time, want 0", el)
		}
	})
}

// TestModelTimeParallelSpeedup is the clock side of
// TestDiskLatencyParallelSpeedup: 64 blocks read in width-4 batches take
// exactly 128 ms of model time on one disk and 32 ms on four — exactly 4×.
func TestModelTimeParallelSpeedup(t *testing.T) {
	const (
		blocks = 64
		width  = 4
	)
	for _, c := range []struct {
		disks int
		want  time.Duration
	}{{1, blocks * modelLatency}, {4, blocks / width * modelLatency}} {
		synctest.Run(func() {
			if elapsed, _ := measureBatchRead(t, c.disks, modelLatency, blocks, width); elapsed != c.want {
				t.Errorf("D=%d: %v, want %v", c.disks, elapsed, c.want)
			}
		})
	}
}
