package pdm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCloseFailsOutstandingJoins pins the Close-vs-async contract: closing
// a volume while Batch*Async deadlines are outstanding must return promptly
// — not run out the reserved horizon or hang — and a Wait on each of them
// must then return at once, because its bytes moved at dispatch and only
// the model-time wait is cut short. Run under -race in `make ci`, this
// doubles as the race test for the dispatch/close interleaving.
func TestCloseFailsOutstandingJoins(t *testing.T) {
	const (
		batches  = 24
		perBatch = 8
		latency  = 20 * time.Millisecond
	)
	v := MustVolume(Config{BlockBytes: 256, MemBlocks: 8, Disks: 2, DiskLatency: latency})
	addr := v.Alloc(batches * perBatch)
	deadlines := make([]time.Time, 0, batches)
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Dispatch from several goroutines so Close races real concurrent
	// dispatchers, not a quiesced queue.
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			addrs := make([]int64, perBatch)
			srcs := make([][]byte, perBatch)
			for i := range addrs {
				addrs[i] = addr + int64(b*perBatch+i)
				srcs[i] = make([]byte, 256)
			}
			deadline, err := v.BatchWriteAsync(addrs, srcs)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			deadlines = append(deadlines, deadline)
			mu.Unlock()
		}(b)
	}
	wg.Wait()

	// The backlog reserves batches*perBatch/2 blocks per disk; a Close that
	// waited even half of that horizon out would blow this deadline.
	horizon := time.Duration(batches*perBatch/2) * latency
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- v.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on the outstanding async backlog")
	}
	if el := time.Since(start); el > horizon/2 {
		t.Fatalf("Close took %v; it must return well inside the %v reserved horizon", el, horizon)
	}
	// Waits after Close must return at once, however far out their
	// deadlines lie, and dispatch must refuse cleanly.
	start = time.Now()
	for _, d := range deadlines {
		v.Wait(d)
	}
	if el := time.Since(start); el > horizon/2 {
		t.Fatalf("waits after Close took %v; they must return at once", el)
	}
	if err := v.BatchWrite([]int64{addr}, [][]byte{make([]byte, 256)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close dispatch: want ErrClosed, got %v", err)
	}
}

// TestPoolWaitRelease pins the admission primitive: a Release wakes the
// head waiter, a deadline parks out with false, and a signal racing a
// timeout is passed on rather than swallowed.
func TestPoolWaitRelease(t *testing.T) {
	p := NewPool(64, 1)
	f, err := p.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	// Deadline with no release: false, promptly.
	if p.WaitRelease(time.Now().Add(5 * time.Millisecond)) {
		t.Fatal("WaitRelease returned true without any release")
	}
	// A parked waiter is woken by Release.
	woke := make(chan bool, 1)
	go func() { woke <- p.WaitRelease(time.Now().Add(5 * time.Second)) }()
	time.Sleep(10 * time.Millisecond) // let it park
	f.Release()
	select {
	case ok := <-woke:
		if !ok {
			t.Fatal("waiter timed out despite the release")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Release did not wake the waiter")
	}
	// FIFO order: with two waiters, one release wakes exactly the first.
	f = p.MustAlloc()
	order := make(chan int, 2)
	ready := make(chan struct{})
	go func() {
		close(ready)
		if p.WaitRelease(time.Now().Add(5 * time.Second)) {
			order <- 1
		}
	}()
	<-ready
	time.Sleep(10 * time.Millisecond)
	go func() {
		if p.WaitRelease(time.Now().Add(5 * time.Second)) {
			order <- 2
		}
	}()
	time.Sleep(10 * time.Millisecond)
	f.Release()
	select {
	case first := <-order:
		if first != 1 {
			t.Fatalf("release woke waiter %d; the FIFO head was 1", first)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no waiter woke")
	}
	select {
	case second := <-order:
		t.Fatalf("one release woke two waiters (second: %d)", second)
	case <-time.After(50 * time.Millisecond):
	}
}
