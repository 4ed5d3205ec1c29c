package pdm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSingleBlockIO hammers a shared volume with parallel readers
// and writers on disjoint address ranges; under -race it fails if the engine
// drops a lock. Each goroutine owns a contiguous address range, so data
// verification is exact. It runs against both storage backends.
func TestConcurrentSingleBlockIO(t *testing.T) {
	forEachBackend(t, Config{BlockBytes: 32, MemBlocks: 4, Disks: 3}, testConcurrentSingleBlockIO)
}

func testConcurrentSingleBlockIO(t *testing.T, v *Volume) {
	const (
		workers   = 8
		perWorker = 64
	)
	base := v.Alloc(workers * perWorker)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 32)
			got := make([]byte, 32)
			for i := 0; i < perWorker; i++ {
				addr := base + int64(w*perWorker+i)
				for j := range buf {
					buf[j] = byte(w ^ i ^ j)
				}
				if err := v.WriteBlock(addr, buf); err != nil {
					errs <- err
					return
				}
				if err := v.ReadBlock(addr, got); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, got) {
					errs <- fmt.Errorf("worker %d block %d: round trip mismatch", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := v.Stats().Snapshot()
	if want := uint64(workers * perWorker); s.Writes != want || s.Reads != want {
		t.Fatalf("counts: reads=%d writes=%d, want %d each", s.Reads, s.Writes, want)
	}
	var perDisk uint64
	for _, c := range s.PerDiskWrites {
		perDisk += c
	}
	if perDisk != s.Writes {
		t.Fatalf("per-disk writes sum %d != total %d", perDisk, s.Writes)
	}
}

// TestConcurrentBatchIO runs parallel batched writers and readers on a
// latency volume, so their reservations interleave on the disks' timelines,
// and checks both data and counter integrity, against both storage
// backends.
func TestConcurrentBatchIO(t *testing.T) {
	cfg := Config{BlockBytes: 16, MemBlocks: 8, Disks: 4, DiskLatency: 20 * time.Microsecond}
	forEachBackend(t, cfg, testConcurrentBatchIO)
}

func testConcurrentBatchIO(t *testing.T, v *Volume) {
	const (
		workers = 4
		batches = 8
		batchSz = 6
	)
	base := v.Alloc(workers * batches * batchSz)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				addrs := make([]int64, batchSz)
				srcs := make([][]byte, batchSz)
				dsts := make([][]byte, batchSz)
				for i := range addrs {
					addrs[i] = base + int64(((w*batches+b)*batchSz + i))
					srcs[i] = bytes.Repeat([]byte{byte(w*31 + b*7 + i)}, 16)
					dsts[i] = make([]byte, 16)
				}
				if err := v.BatchWrite(addrs, srcs); err != nil {
					errs <- err
					return
				}
				if err := v.BatchRead(addrs, dsts); err != nil {
					errs <- err
					return
				}
				for i := range dsts {
					if !bytes.Equal(srcs[i], dsts[i]) {
						errs <- fmt.Errorf("worker %d batch %d item %d: mismatch", w, b, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := v.Stats().Snapshot()
	want := uint64(workers * batches * batchSz)
	if s.Writes != want || s.Reads != want {
		t.Fatalf("counts: reads=%d writes=%d, want %d each", s.Reads, s.Writes, want)
	}
}

// TestConcurrentAllocFreeChurn exercises the allocator metadata under
// parallel alloc/free/write churn.
func TestConcurrentAllocFreeChurn(t *testing.T) {
	v := MustVolume(Config{BlockBytes: 8, MemBlocks: 4, Disks: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < 200; i++ {
				a := v.Alloc(1)
				if err := v.WriteBlock(a, buf); err != nil {
					panic(err)
				}
				if i%3 == 0 {
					v.Free(a)
				}
			}
		}()
	}
	wg.Wait()
	if v.Allocated() <= 0 {
		t.Fatal("no blocks allocated")
	}
}

// TestConcurrentPoolChurn exercises Pool alloc/free churn from many
// goroutines; -race plus the accounting assertions catch lost updates.
func TestConcurrentPoolChurn(t *testing.T) {
	p := NewPool(16, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]*Frame, 0, 4)
			for i := 0; i < 500; i++ {
				if len(local) < 4 {
					if f, err := p.Alloc(); err == nil {
						f.Buf[0] = byte(i)
						local = append(local, f)
						continue
					}
				}
				if len(local) > 0 {
					local[len(local)-1].Release()
					local = local[:len(local)-1]
				}
			}
			ReleaseAll(local)
		}()
	}
	wg.Wait()
	if got := p.InUse(); got != 0 {
		t.Fatalf("in-use after churn = %d, want 0", got)
	}
	if p.Peak() > p.Capacity() {
		t.Fatalf("peak %d exceeds capacity %d", p.Peak(), p.Capacity())
	}
}

// TestStatsSnapshotDuringIO reads Snapshot concurrently with in-flight I/O;
// it must never race and the final snapshot must match the work done.
func TestStatsSnapshotDuringIO(t *testing.T) {
	v := MustVolume(Config{BlockBytes: 8, MemBlocks: 4, Disks: 2})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 8)
		base := v.Alloc(256)
		for i := int64(0); i < 256; i++ {
			if err := v.WriteBlock(base+i, buf); err != nil {
				panic(err)
			}
		}
	}()
	for {
		select {
		case <-done:
			if s := v.Stats().Snapshot(); s.Writes != 256 {
				t.Fatalf("final writes = %d, want 256", s.Writes)
			}
			return
		default:
			_ = v.Stats().Snapshot()
			_ = v.Stats().Total()
		}
	}
}

// TestCloseIdempotentAndRejectsIO checks Close semantics: idempotent, and
// every later transfer refused without charging a counter.
func TestCloseIdempotentAndRejectsIO(t *testing.T) {
	v := MustVolume(Config{BlockBytes: 8, MemBlocks: 4, Disks: 2, DiskLatency: time.Microsecond})
	base := v.Alloc(2)
	bufs := [][]byte{make([]byte, 8), make([]byte, 8)}
	addrs := []int64{base, base + 1}
	if err := v.BatchWrite(addrs, bufs); err != nil {
		t.Fatal(err)
	}
	v.Close()
	v.Close() // idempotent
	before := v.Stats().Snapshot()
	if err := v.BatchRead(addrs, bufs); err != ErrClosed {
		t.Fatalf("batch after close: got %v, want ErrClosed", err)
	}
	// Single-block I/O is refused too — the backend may hold real file
	// handles that Close released.
	if err := v.ReadBlock(addrs[0], bufs[0]); err != ErrClosed {
		t.Fatalf("read after close: got %v, want ErrClosed", err)
	}
	if err := v.WriteBlock(addrs[0], bufs[0]); err != ErrClosed {
		t.Fatalf("write after close: got %v, want ErrClosed", err)
	}
	// Refused I/O must not charge any counter: no phantom transfers.
	after := v.Stats().Snapshot()
	if after.Reads != before.Reads || after.Writes != before.Writes || after.Steps != before.Steps {
		t.Fatalf("closed I/O charged counters: before %+v after %+v", before, after)
	}
}

// measureBatchRead writes then re-reads `blocks` blocks through striped
// batches of size `width` on a freshly built volume, returning the read
// phase's elapsed time and parallel steps.
func measureBatchRead(t *testing.T, disks int, latency time.Duration, blocks, width int) (time.Duration, uint64) {
	t.Helper()
	v := MustVolume(Config{BlockBytes: 64, MemBlocks: 2 * width, Disks: disks, DiskLatency: latency})
	defer v.Close()
	base := v.Alloc(blocks)
	src := make([]byte, 64)
	bufs := make([][]byte, width)
	addrs := make([]int64, width)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	for b := 0; b < blocks; b++ {
		copy(src, []byte{byte(b)})
		if err := v.WriteBlock(base+int64(b), src); err != nil {
			t.Fatal(err)
		}
	}
	v.Stats().Reset()
	start := time.Now()
	for b := 0; b < blocks; b += width {
		for i := 0; i < width; i++ {
			addrs[i] = base + int64(b+i)
		}
		if err := v.BatchRead(addrs, bufs); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start), v.Stats().Steps
}

// TestDiskLatencyParallelSpeedup is the acceptance check for striping: at
// equal total block count, width-4 striped batches on 4 disks cost exactly
// a quarter of the parallel steps they cost on 1 disk. Steps are what the
// latency turns into wall clock; modeltime_test.go asserts the clock side
// exactly, in virtual time.
func TestDiskLatencyParallelSpeedup(t *testing.T) {
	const (
		latency = 20 * time.Microsecond
		blocks  = 64
		width   = 4
	)
	_, serial := measureBatchRead(t, 1, latency, blocks, width)
	_, parallel := measureBatchRead(t, 4, latency, blocks, width)
	if serial != blocks || parallel != blocks/width {
		t.Fatalf("steps: D=1 %d (want %d), D=4 %d (want %d)", serial, blocks, parallel, blocks/width)
	}
}

// TestTransferBytesMoveAtDispatch pins the byte order of the async
// transfers at every latency: the bytes move at dispatch and the deadline
// only marks model time, so a read issued after BatchWriteAsync returns sees
// the new bytes even while the write's deadline — and a backlog queued ahead
// of it on the same disk — has not been waited.
func TestTransferBytesMoveAtDispatch(t *testing.T) {
	for _, latency := range []time.Duration{0, 20 * time.Millisecond} {
		t.Run(latency.String(), func(t *testing.T) {
			forEachBackend(t, Config{BlockBytes: 32, MemBlocks: 4, Disks: 1, DiskLatency: latency}, func(t *testing.T, v *Volume) {
				backlog, a := v.Alloc(1), v.Alloc(1)
				dueBacklog, err := v.BatchWriteAsync([]int64{backlog}, [][]byte{make([]byte, 32)})
				if err != nil {
					t.Fatal(err)
				}
				want := bytes.Repeat([]byte{0xA5}, 32)
				dueA, err := v.BatchWriteAsync([]int64{a}, [][]byte{want})
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, 32)
				if err := v.ReadBlock(a, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("read before the waits returned %x, want the bytes written at dispatch", got[:4])
				}
				v.Wait(dueBacklog)
				v.Wait(dueA)
			})
		})
	}
}

// TestLatencyStatsMatchSerial asserts the counted model is unchanged by the
// service latency or the storage backend: the same workload on latency and
// no-latency volumes, memory- and file-backed, yields identical Stats.
func TestLatencyStatsMatchSerial(t *testing.T) {
	run := func(cfg Config) Stats {
		v := MustVolume(cfg)
		defer v.Close()
		base := v.Alloc(16)
		bufs := make([][]byte, 4)
		addrs := make([]int64, 4)
		for i := range bufs {
			bufs[i] = make([]byte, 32)
		}
		for b := 0; b < 16; b += 4 {
			for i := 0; i < 4; i++ {
				addrs[i] = base + int64(b+i)
			}
			if err := v.BatchWrite(addrs, bufs); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 4; i++ {
			addrs[i] = base + int64(i*4) // collide on one disk
		}
		if err := v.BatchRead(addrs, bufs); err != nil {
			panic(err)
		}
		return v.Stats().Snapshot()
	}
	serial := run(Config{BlockBytes: 32, MemBlocks: 8, Disks: 4})
	variants := map[string]Config{
		"engine":      {BlockBytes: 32, MemBlocks: 8, Disks: 4, DiskLatency: 10 * time.Microsecond},
		"file":        {BlockBytes: 32, MemBlocks: 8, Disks: 4, Dir: t.TempDir()},
		"file+engine": {BlockBytes: 32, MemBlocks: 8, Disks: 4, DiskLatency: 10 * time.Microsecond, Dir: t.TempDir()},
	}
	for name, cfg := range variants {
		got := run(cfg)
		if serial.Reads != got.Reads || serial.Writes != got.Writes || serial.Steps != got.Steps {
			t.Fatalf("%s stats diverge: serial %+v got %+v", name, serial, got)
		}
		for i := range serial.PerDiskReads {
			if serial.PerDiskReads[i] != got.PerDiskReads[i] || serial.PerDiskWrites[i] != got.PerDiskWrites[i] {
				t.Fatalf("%s per-disk stats diverge on disk %d", name, i)
			}
		}
	}
}
