package pdm

import (
	"fmt"
	"sync"
	"time"
)

// Pool enforces the internal-memory budget of the model: it hands out at most
// MemBlocks block-sized frames. Every algorithm in this module draws its
// working buffers from a Pool, so an implementation that needs more than M/B
// frames cannot pass its tests by silently using extra RAM.
//
// Pool is safe for concurrent use: asynchronous prefetchers and write-behind
// writers allocate and release frames from background goroutines, and their
// buffers are charged to the same budget M as everything else.
//
// Frames are recycled through a free list, so steady-state allocation does
// not touch the garbage collector. A sub-budget — a session's, a drain's, a
// loader's — is a pool carved from this one (Carve), which hands out the
// frames it took and makes none of its own.
type Pool struct {
	blockBytes int
	capacity   int
	parent     *Pool // the pool Carve took this one's frames from; nil if none

	mu      sync.Mutex
	inUse   int
	peak    int
	closed  bool // a carved pool after Close: released frames go to parent
	free    []*Frame
	waiters []chan struct{} // FIFO of WaitRelease parkers; head signalled per Release
}

// Frame is one block-sized memory buffer on loan from a Pool.
type Frame struct {
	// Buf is the frame's storage, exactly one block long.
	Buf  []byte
	pool *Pool
}

// NewPool creates a pool of capacity frames of blockBytes each.
func NewPool(blockBytes, capacity int) *Pool {
	return &Pool{blockBytes: blockBytes, capacity: capacity}
}

// PoolFor creates the pool implied by a volume's configuration: MemBlocks
// frames of BlockBytes bytes.
func PoolFor(v *Volume) *Pool {
	return NewPool(v.cfg.BlockBytes, v.cfg.MemBlocks)
}

// Capacity returns the frame budget M/B.
func (p *Pool) Capacity() int { return p.capacity }

// InUse returns the number of frames currently on loan.
func (p *Pool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// Free returns the number of frames still available.
func (p *Pool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity - p.inUse
}

// Peak returns the high-water mark of simultaneous frames on loan, useful
// for asserting that an algorithm stayed within a sub-budget.
func (p *Pool) Peak() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// Alloc borrows one frame. It returns ErrNoFrames when the budget is
// exhausted, which signals a violation of the algorithm's stated memory
// bound.
func (p *Pool) Alloc() (*Frame, error) {
	p.mu.Lock()
	if p.closed || p.inUse >= p.capacity {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: capacity %d", ErrNoFrames, p.capacity)
	}
	p.inUse++
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		f.pool = p
		p.mu.Unlock()
		return f, nil
	}
	p.mu.Unlock()
	return &Frame{Buf: make([]byte, p.blockBytes), pool: p}, nil
}

// MustAlloc is Alloc for callers that have already reserved their budget and
// treat exhaustion as a programming error.
func (p *Pool) MustAlloc() *Frame {
	f, err := p.Alloc()
	if err != nil {
		panic(err)
	}
	return f
}

// AllocN borrows n frames, releasing any partial allocation on failure.
func (p *Pool) AllocN(n int) ([]*Frame, error) {
	frames := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		f, err := p.Alloc()
		if err != nil {
			for _, g := range frames {
				g.Release()
			}
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// Carve takes n frames from p, all or none, and returns a pool of capacity
// n that hands out exactly those frames: it never makes a buffer of its
// own, so the memory a carved budget holds is the memory p counts, once.
// A carve larger than p has free fails with ErrNoFrames and leaves p as it
// was. A carved pool may itself be carved. Close returns its frames to p.
func (p *Pool) Carve(n int) (*Pool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.inUse+n > p.capacity {
		return nil, fmt.Errorf("%w: carve %d of capacity %d, %d in use", ErrNoFrames, n, p.capacity, p.inUse)
	}
	c := &Pool{blockBytes: p.blockBytes, capacity: n, parent: p, free: make([]*Frame, n)}
	k := min(n, len(p.free)) // all n on a carved p, whose free list holds its every unlent frame
	copy(c.free, p.free[len(p.free)-k:])
	p.free = p.free[:len(p.free)-k]
	for i := k; i < n; i++ {
		c.free[i] = &Frame{Buf: make([]byte, p.blockBytes)}
	}
	p.inUse += n
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	return c, nil
}

// Close returns a carved pool's frames to the pool it was carved from: the
// frames it holds at once, and each frame still on loan when that frame is
// released, so a session closed before its scanner loses nothing. A closed
// pool allocates nothing. Close does nothing on a pool that was not carved
// or is already closed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.parent == nil || p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, f := range free {
		p.parent.put(f)
	}
}

// WaitRelease parks the caller in the pool's FIFO until some frame is
// released (true) or the deadline passes (false). It is the admission
// primitive behind the serving layer's overload handling: a request that
// found the pool starved parks here, each Release wakes exactly the head
// waiter, and the woken request retries its allocation. WaitRelease does
// not itself allocate anything — capacity seen on wake-up can be claimed
// by a non-waiting caller first, so callers loop: park, retry, park.
func (p *Pool) WaitRelease(deadline time.Time) bool {
	ch := make(chan struct{})
	p.mu.Lock()
	p.waiters = append(p.waiters, ch)
	p.mu.Unlock()
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, w := range p.waiters {
		if w == ch {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			return false
		}
	}
	// Signalled concurrently with the timeout: the deadline still governs
	// this caller, but the release it consumed is passed on to the next
	// waiter rather than swallowed.
	p.signalLocked()
	return false
}

// signalLocked wakes the head waiter, if any. Caller holds p.mu.
func (p *Pool) signalLocked() {
	if len(p.waiters) > 0 {
		close(p.waiters[0])
		p.waiters = p.waiters[1:]
	}
}

// Release returns the frame to its pool. Releasing twice panics, as it
// indicates corrupted buffer accounting.
func (f *Frame) Release() {
	if f.pool == nil {
		panic("pdm: double release of frame")
	}
	p := f.pool
	f.pool = nil
	p.put(f)
}

// put takes back a frame on loan from p. A closed carved pool passes it on
// to the pool it was carved from, and so on up.
func (p *Pool) put(f *Frame) {
	for {
		p.mu.Lock()
		p.inUse--
		if !p.closed {
			break
		}
		p.mu.Unlock()
		p = p.parent
	}
	p.free = append(p.free, f)
	p.signalLocked()
	p.mu.Unlock()
}

// ReleaseAll releases every frame in frames.
func ReleaseAll(frames []*Frame) {
	for _, f := range frames {
		f.Release()
	}
}
