// Package pdm implements the Parallel Disk Model of Vitter and Shriver as an
// instrumented, in-process block device.
//
// The model has four parameters:
//
//	N — problem size in records (a property of the workload, not the device)
//	M — internal memory capacity in records
//	B — block size in records
//	D — number of independent disks
//
// A Volume exposes a linear space of fixed-size blocks striped round-robin
// across D simulated disks and counts every block transfer. Two costs are
// tracked: total block I/Os (the classical single-disk measure) and parallel
// I/O steps, where one step may transfer up to D blocks provided they reside
// on distinct disks. Algorithms built on pdm therefore report exactly the
// quantities the external-memory literature reasons about, free of page-cache
// and garbage-collector noise.
//
// # Concurrency model
//
// A Volume is safe for concurrent use. Each simulated disk has its own lock,
// so transfers addressed to distinct disks proceed in parallel, while
// transfers to the same disk serialise — exactly the contention the PDM
// charges for. Every transfer, one block or a batch, takes one path on the
// calling goroutine: it is validated and charged, each disk's share of it
// is counted once, and its blocks move under their disks' locks. The volume
// starts no goroutine of its own.
//
// When Config.DiskLatency is non-zero each share also books its service
// time on its disk's timeline, and the transfer is done when the worst
// disk's reservation runs out. The disk is a serial resource whose queue of
// reserved service times runs forward from the moment work is submitted. A
// batch's wall-clock time is therefore its parallel-step cost times
// DiskLatency, not its size, which makes D-way speedups directly measurable
// with a stopwatch and keeps overlap honest even on a single-CPU host.
// BatchReadAsync and BatchWriteAsync split the transfer from that wait: the
// bytes move and the error is decided at dispatch, and the returned deadline
// is what Volume.Wait later sleeps to. Package stream builds forecasting
// read-ahead and write-behind on them. Close is idempotent and cuts short
// any wait still sleeping. With
// DiskLatency zero nothing sleeps, and every I/O count is the same as at
// any latency.
//
// # Stats semantics
//
// Counters are updated with sharded atomics: Reads, Writes and Steps are
// single atomic words, and the per-disk breakdowns are one shard per disk so
// transfers to distinct disks never contend on a shared counter.
// Volume.Stats returns a live view — sequential callers may read its
// exported fields directly, as every Volume method completes its counter
// updates before returning. Callers that overlap I/O from several
// goroutines must use Stats.Snapshot (or establish their own happens-before
// edge, e.g. WaitGroup.Wait) rather than reading fields mid-flight. Reset
// and Snapshot are always safe to call concurrently with I/O.
//
// # Storage backends
//
// Where the bytes of each simulated disk actually live is pluggable through
// the Backend interface, carved out of the per-disk service seam: the
// Volume owns addressing, counters, per-disk locking and reservations, and
// delegates only the final one-block transfer. The default backend is the
// in-memory simulation; setting Config.Dir selects the file-backed store,
// which maps each of the D disks to its own file (O_DIRECT on Linux where
// the block size and filesystem allow, buffered I/O otherwise) so the same
// algorithms exercise real hardware. Counters are charged before the
// backend is invoked, so Stats are identical across backends for the same
// workload — the sim==file invariant the backend tests pin down.
//
// Memory is modelled by Pool, which hands out at most M/B block-sized frames
// and refuses further allocation, so an algorithm that exceeds its stated
// memory bound fails its tests rather than silently borrowing RAM. Pool is
// likewise safe for concurrent use, which lets asynchronous readers and
// writers (see package stream) charge their prefetch buffers to the same
// budget M as everything else.
package pdm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Common errors returned by Volume operations.
var (
	// ErrBadAddress reports a block address outside the allocated space.
	ErrBadAddress = errors.New("pdm: block address out of range")
	// ErrBadBuffer reports a caller buffer whose length is not the block size.
	ErrBadBuffer = errors.New("pdm: buffer length != block size")
	// ErrNoFrames reports that the buffer pool is exhausted, i.e. the
	// algorithm attempted to exceed its internal-memory budget M.
	ErrNoFrames = errors.New("pdm: buffer pool exhausted (memory budget M exceeded)")
	// ErrClosed reports I/O on a volume that has been closed.
	ErrClosed = errors.New("pdm: volume closed")
)

// Config fixes the device-shape parameters of a parallel disk model instance.
// The problem size N is a property of each workload and does not appear here.
type Config struct {
	// BlockBytes is the size of one block in bytes (the survey's B, here in
	// bytes; divide by a record size to obtain B in records).
	BlockBytes int
	// MemBlocks is the number of block frames that fit in internal memory,
	// i.e. M/B. A Pool created from this config enforces the budget.
	MemBlocks int
	// Disks is D, the number of independent disks blocks are striped over.
	Disks int
	// DiskLatency is the simulated service time per block transfer. Zero
	// (the default) is the purely-counted model: nothing sleeps. A non-zero
	// latency books every transfer on its disks' timelines and holds the
	// caller (or its later Volume.Wait) until the worst disk's reservation
	// runs out, so batch wall-clock time is proportional to the parallel-step
	// cost and striping speedups show up on a stopwatch.
	DiskLatency time.Duration
	// Dir, when non-empty, stores the disks' blocks in real files — one per
	// simulated disk — under this directory (created if absent) instead of
	// in memory. See the package comment's storage-backend section; all
	// counters and semantics are identical, only the medium changes. Close
	// the volume to close the files; the files themselves are left behind.
	Dir string
	// Fault, when non-nil, wraps whichever backend the config selects in a
	// deterministic fault-injecting layer driven by this plan — transient
	// errors, latency spikes, a fail-after-N crash point — so unwind and
	// retry paths are mechanically exercisable on both media. See FaultPlan.
	Fault *FaultPlan
	// Retry, when non-nil, re-drives Transient-classified backend errors of
	// each block transfer with capped exponential backoff under a per-op
	// deadline, on the single-block and batched paths alike.
	// Permanent errors propagate unchanged; every retry is counted in
	// Stats.Retries. See RetryPolicy.
	Retry *RetryPolicy
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BlockBytes <= 0 {
		return fmt.Errorf("pdm: BlockBytes must be positive, got %d", c.BlockBytes)
	}
	if c.MemBlocks < 2 {
		return fmt.Errorf("pdm: MemBlocks must be at least 2, got %d", c.MemBlocks)
	}
	if c.Disks < 1 {
		return fmt.Errorf("pdm: Disks must be at least 1, got %d", c.Disks)
	}
	if c.DiskLatency < 0 {
		return fmt.Errorf("pdm: DiskLatency must be non-negative, got %v", c.DiskLatency)
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return err
		}
	}
	if c.Retry != nil {
		if err := c.Retry.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats accumulates I/O counts for a Volume. Counts are in block transfers.
//
// The counters are maintained with atomic operations, sharded per disk, so
// concurrent transfers never contend on one cache line. Reading the exported
// fields directly is fine for sequential code (every Volume call completes
// its updates before returning); code that overlaps I/O across goroutines
// should use Snapshot, which loads atomically.
type Stats struct {
	// Reads and Writes count individual block transfers.
	Reads  uint64
	Writes uint64
	// Steps counts parallel I/O steps: a batch transfer of k blocks spread
	// over the disks costs max-blocks-per-single-disk steps; an unbatched
	// transfer costs one step.
	Steps uint64
	// Retries counts transient-error re-drives performed under
	// Config.Retry. Retried attempts are not re-charged to Reads/Writes —
	// the transfer is the same block op, however many attempts it took —
	// so a faulted run that retries to success reports counted I/Os
	// identical to the clean run's, with its extra work auditable here.
	Retries uint64
	// PerDiskReads and PerDiskWrites break transfers down by disk. Each
	// entry is its own atomic shard.
	PerDiskReads  []uint64
	PerDiskWrites []uint64
}

// Total returns reads plus writes.
func (s *Stats) Total() uint64 {
	return atomic.LoadUint64(&s.Reads) + atomic.LoadUint64(&s.Writes)
}

// Reset zeroes all counters in place, preserving the per-disk slices.
func (s *Stats) Reset() {
	atomic.StoreUint64(&s.Reads, 0)
	atomic.StoreUint64(&s.Writes, 0)
	atomic.StoreUint64(&s.Steps, 0)
	atomic.StoreUint64(&s.Retries, 0)
	for i := range s.PerDiskReads {
		atomic.StoreUint64(&s.PerDiskReads[i], 0)
	}
	for i := range s.PerDiskWrites {
		atomic.StoreUint64(&s.PerDiskWrites[i], 0)
	}
}

// Snapshot returns an atomically-loaded copy of the current counters. It is
// the safe way to observe Stats while I/O may be in flight on other
// goroutines.
func (s *Stats) Snapshot() Stats {
	cp := Stats{
		Reads:         atomic.LoadUint64(&s.Reads),
		Writes:        atomic.LoadUint64(&s.Writes),
		Steps:         atomic.LoadUint64(&s.Steps),
		Retries:       atomic.LoadUint64(&s.Retries),
		PerDiskReads:  make([]uint64, len(s.PerDiskReads)),
		PerDiskWrites: make([]uint64, len(s.PerDiskWrites)),
	}
	for i := range s.PerDiskReads {
		cp.PerDiskReads[i] = atomic.LoadUint64(&s.PerDiskReads[i])
	}
	for i := range s.PerDiskWrites {
		cp.PerDiskWrites[i] = atomic.LoadUint64(&s.PerDiskWrites[i])
	}
	return cp
}

// String renders the counters compactly for logs and experiment tables.
// Retries appear only when any fired, so clean-run output is unchanged.
func (s *Stats) String() string {
	cp := s.Snapshot()
	out := fmt.Sprintf("reads=%d writes=%d total=%d steps=%d", cp.Reads, cp.Writes, cp.Reads+cp.Writes, cp.Steps)
	if cp.Retries > 0 {
		out += fmt.Sprintf(" retries=%d", cp.Retries)
	}
	return out
}

// addRead charges one read on disk d.
func (s *Stats) addRead(d int) {
	atomic.AddUint64(&s.Reads, 1)
	atomic.AddUint64(&s.PerDiskReads[d], 1)
}

// addWrite charges one write on disk d.
func (s *Stats) addWrite(d int) {
	atomic.AddUint64(&s.Writes, 1)
	atomic.AddUint64(&s.PerDiskWrites[d], 1)
}

// addSteps charges n parallel steps.
func (s *Stats) addSteps(n uint64) { atomic.AddUint64(&s.Steps, n) }

// addRetry counts one transient-error re-drive.
func (s *Stats) addRetry() { atomic.AddUint64(&s.Retries, 1) }

// disk is one simulated disk's scheduling state: the lock that serialises
// its transfers (the backend holds the actual blocks) and the service-time
// reservation horizon. Service time is modelled as a per-disk timeline:
// every transfer reserves DiskLatency per block on its disk when it is
// submitted, so a disk's k-th queued block completes k·DiskLatency after
// the disk went busy, however the goroutines involved are scheduled.
type disk struct {
	mu        sync.Mutex
	busyUntil time.Time // reservation horizon; meaningful only with latency
}

// Volume is a linear block address space striped round-robin over D disks.
// Block address a lives on disk a mod D at position a div D. Volumes grow on
// demand through Alloc and never shrink; Free records reusable addresses.
//
// Volume is safe for concurrent use; see the package comment for the
// concurrency model and the wall-clock semantics of Config.DiskLatency.
type Volume struct {
	cfg     Config
	disks   []disk
	backend Backend
	fault   *FaultBackend // non-nil when cfg.Fault wrapped the backend
	stats   Stats

	mu       sync.Mutex // guards next and freeList
	next     int64      // next unallocated block address
	freeList []int64

	closeOnce sync.Once
	closeErr  error
	closeMu   sync.RWMutex  // transfers hold R, Close holds W
	closed    bool          // guarded by closeMu
	closing   chan struct{} // closed by Close; cuts reservation waits short
}

// NewVolume creates an empty volume with the given configuration. When
// cfg.Dir is non-empty the blocks live in one file per disk under that
// directory. Call Close to close the files and release any Wait still
// sleeping out its reservation.
func NewVolume(cfg Config) (*Volume, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := &Volume{cfg: cfg, disks: make([]disk, cfg.Disks), closing: make(chan struct{})}
	if cfg.Dir != "" {
		fb, err := newFileBackend(cfg.Dir, cfg.Disks, cfg.BlockBytes)
		if err != nil {
			return nil, err
		}
		v.backend = fb
	} else {
		v.backend = newMemBackend(cfg.Disks, cfg.BlockBytes)
	}
	if cfg.Fault != nil {
		fb, err := NewFaultBackend(v.backend, cfg.Disks, *cfg.Fault)
		if err != nil {
			v.backend.Close()
			return nil, err
		}
		v.backend = fb
		v.fault = fb
	}
	v.stats.PerDiskReads = make([]uint64, cfg.Disks)
	v.stats.PerDiskWrites = make([]uint64, cfg.Disks)
	return v, nil
}

// MustVolume is NewVolume for tests and examples with known-good configs.
func MustVolume(cfg Config) *Volume {
	v, err := NewVolume(cfg)
	if err != nil {
		panic(err)
	}
	return v
}

// Close closes the storage backend (a no-op for the in-memory simulation;
// the file backend closes its per-disk files and returns the first close
// error). It is idempotent — repeated calls return the first call's result.
// Close waits for transfers already moving bytes to finish, then cuts short
// every reservation wait: a Wait on an outstanding Batch*Async deadline
// returns at once (the bytes moved at dispatch) instead of running out the
// reserved horizon. I/O submitted after Close returns
// ErrClosed without charging counters, on the single-block and batched
// paths alike.
func (v *Volume) Close() error {
	v.closeOnce.Do(func() {
		v.closeMu.Lock()
		v.closed = true
		close(v.closing)
		v.closeMu.Unlock()
		v.closeErr = v.backend.Close()
	})
	return v.closeErr
}

// reserve books n block-services on disk di's timeline, starting no
// earlier than now, and returns the time the last of them completes.
func (v *Volume) reserve(di, n int, now time.Time) time.Time {
	d := &v.disks[di]
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.busyUntil.Before(now) {
		d.busyUntil = now
	}
	d.busyUntil = d.busyUntil.Add(time.Duration(n) * v.cfg.DiskLatency)
	return d.busyUntil
}

// Wait sleeps until deadline, the moment a Batch*Async transfer's
// reservation runs out. Book the next transfer before you wait out the
// last: the sleep may overshoot, and only what is booked keeps the disks
// busy through it. Close cuts the wait short: once the volume is
// shutting down nobody is measuring reservation horizons any more. A zero
// deadline — nothing was reserved — returns at once without reading the
// clock.
func (v *Volume) Wait(deadline time.Time) {
	if deadline.IsZero() {
		return
	}
	if dt := time.Until(deadline); dt > 0 {
		t := time.NewTimer(dt)
		defer t.Stop()
		select {
		case <-t.C:
		case <-v.closing:
		}
	}
}

// finish waits out a transfer's deadline, then returns its error: the
// second half of every blocking call.
func (v *Volume) finish(deadline time.Time, err error) error {
	v.Wait(deadline)
	return err
}

// service performs one block transfer on disk di at the given slot, holding
// the disk's lock so the backend sees per-disk serialised access. With
// Config.Retry set, Transient-classified backend errors are re-driven with
// capped exponential backoff under the policy's per-op deadline; permanent
// errors (and transient ones once the budget is exhausted) propagate.
func (v *Volume) service(di int, slot int64, buf []byte, write bool) error {
	d := &v.disks[di]
	d.mu.Lock()
	defer d.mu.Unlock()
	err := v.backend.Service(di, slot, buf, write)
	if err == nil || v.cfg.Retry == nil || !IsTransient(err) {
		return err
	}
	return v.retryService(di, slot, buf, write, err)
}

// retryService re-drives one transient-failed transfer, sleeping each
// backoff on the transferring goroutine. The caller holds the disk's lock
// throughout — the disk is a serial resource, and a stalling, retrying
// transfer holds up that disk exactly as a real flaky spindle would.
// Counters are not re-charged: the transfer was charged once at dispatch,
// and only Stats.Retries records the extra attempts.
func (v *Volume) retryService(di int, slot int64, buf []byte, write bool, err error) error {
	r := v.cfg.Retry
	var deadline time.Time
	if r.OpDeadline > 0 {
		deadline = time.Now().Add(r.OpDeadline)
	}
	backoff := r.base()
	for attempt := 0; attempt < r.maxRetries(); attempt++ {
		if !deadline.IsZero() && !time.Now().Add(backoff).Before(deadline) {
			return fmt.Errorf("pdm: retry deadline %v exceeded after %d attempts: %w", r.OpDeadline, attempt+1, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > r.cap() {
			backoff = r.cap()
		}
		v.stats.addRetry()
		if err = v.backend.Service(di, slot, buf, write); err == nil || !IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("pdm: retries exhausted after %d attempts: %w", r.maxRetries()+1, err)
}

// Fault returns the fault-injecting backend installed by Config.Fault, or
// nil — tests and experiments use it to audit how many faults actually
// fired against the retries the Stats report.
func (v *Volume) Fault() *FaultBackend { return v.fault }

// Config returns the volume's configuration.
func (v *Volume) Config() Config { return v.cfg }

// BlockBytes returns the block size in bytes.
func (v *Volume) BlockBytes() int { return v.cfg.BlockBytes }

// Disks returns D, the number of disks.
func (v *Volume) Disks() int { return v.cfg.Disks }

// Stats returns the live counter set. Callers may Reset or Snapshot it; see
// the package comment for which reads are safe under concurrency.
func (v *Volume) Stats() *Stats { return &v.stats }

// Allocated returns the number of blocks ever allocated (the high-water
// address), including freed blocks.
func (v *Volume) Allocated() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.next
}

// Alloc reserves n fresh blocks and returns the address of the first.
// Addresses of a single Alloc are contiguous, so they stripe evenly over the
// disks. Freed blocks are reused only for single-block allocations.
func (v *Volume) Alloc(n int) int64 {
	if n <= 0 {
		panic("pdm: Alloc of non-positive block count")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if n == 1 && len(v.freeList) > 0 {
		addr := v.freeList[len(v.freeList)-1]
		v.freeList = v.freeList[:len(v.freeList)-1]
		return addr
	}
	addr := v.next
	v.next += int64(n)
	return addr
}

// Free marks a block address reusable. The block's contents remain until
// overwritten; reading a freed block is permitted (it models a disk, not an
// allocator with poisoning).
func (v *Volume) Free(addr int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.freeList = append(v.freeList, addr)
}

// FreeBlocks returns the number of freed block addresses awaiting reuse.
// Allocated()-FreeBlocks() is the live-block count, which leak tests assert
// is restored after an aborted operation.
func (v *Volume) FreeBlocks() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return int64(len(v.freeList))
}

// checkAddr validates a block address against the allocation high-water mark.
func (v *Volume) checkAddr(addr int64) error {
	v.mu.Lock()
	next := v.next
	v.mu.Unlock()
	if addr < 0 || addr >= next {
		return fmt.Errorf("%w: %d (allocated %d)", ErrBadAddress, addr, next)
	}
	return nil
}

// ReadBlock copies block addr into dst, which must be exactly one block long.
// It costs one block read and one parallel step. After Close it returns
// ErrClosed without charging counters.
func (v *Volume) ReadBlock(addr int64, dst []byte) error {
	return v.finish(v.transfer([]int64{addr}, [][]byte{dst}, false))
}

// WriteBlock stores src as block addr. It costs one block write and one
// parallel step. After Close it returns ErrClosed without charging counters.
func (v *Volume) WriteBlock(addr int64, src []byte) error {
	return v.finish(v.transfer([]int64{addr}, [][]byte{src}, true))
}

// serviceAll moves the given blocks in batch order on the calling
// goroutine. On a backend error it keeps servicing the remaining blocks —
// the counters were already charged for all of them — and returns the
// first error.
func (v *Volume) serviceAll(addrs []int64, bufs [][]byte, write bool) error {
	var first error
	for i, a := range addrs {
		if err := v.service(int(a)%v.cfg.Disks, a/int64(v.cfg.Disks), bufs[i], write); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// transfer is the one transfer path under every read and write. It
// validates the request block by block in batch order, charging each
// block's counter as it goes; on a validation error the already validated
// prefix is still moved and charged, with no step cost and no reservation,
// and the validation error is returned. A valid
// request is charged its parallel-step cost, the largest share any one disk
// must serve, and with a non-zero DiskLatency each share books its service
// time on its disk's timeline. Then every block moves on the calling
// goroutine. The returned deadline is when the worst disk's reservation
// runs out, or zero when nothing was reserved; the caller waits it out,
// at once or later.
//
// The close lock is held in read mode throughout, so Close — which takes it
// in write mode before shutting the backend down — cannot yank the backend
// out from under an in-flight Service call, and a refused transfer charges
// nothing and moves nothing.
func (v *Volume) transfer(addrs []int64, bufs [][]byte, write bool) (deadline time.Time, err error) {
	if len(addrs) != len(bufs) {
		verb := "BatchRead"
		if write {
			verb = "BatchWrite"
		}
		return deadline, fmt.Errorf("pdm: %s length mismatch: %d addrs, %d buffers", verb, len(addrs), len(bufs))
	}
	if len(addrs) == 0 {
		return deadline, nil
	}
	v.closeMu.RLock()
	defer v.closeMu.RUnlock()
	if v.closed {
		return deadline, ErrClosed
	}
	// Each disk's share, counted once: the largest is the step cost, and
	// each is what its disk reserves. The stack array covers the usual disk
	// counts, so a transfer allocates nothing for it.
	var small [8]int
	shares := small[:min(v.cfg.Disks, len(small))]
	if v.cfg.Disks > len(small) {
		shares = make([]int, v.cfg.Disks)
	}
	steps := 0
	for i, a := range addrs {
		if len(bufs[i]) != v.cfg.BlockBytes {
			// The validation error wins over any backend error on the prefix.
			_ = v.serviceAll(addrs[:i], bufs[:i], write)
			return deadline, fmt.Errorf("%w: buffer %d has %d bytes, want %d", ErrBadBuffer, i, len(bufs[i]), v.cfg.BlockBytes)
		}
		if err := v.checkAddr(a); err != nil {
			_ = v.serviceAll(addrs[:i], bufs[:i], write)
			return deadline, err
		}
		di := int(a) % v.cfg.Disks
		if write {
			v.stats.addWrite(di)
		} else {
			v.stats.addRead(di)
		}
		shares[di]++
		steps = max(steps, shares[di])
	}
	v.stats.addSteps(uint64(steps))
	if v.cfg.DiskLatency > 0 {
		now := time.Now()
		for di, n := range shares {
			if n == 0 {
				continue
			}
			if end := v.reserve(di, n, now); end.After(deadline) {
				deadline = end
			}
		}
	}
	return deadline, v.serviceAll(addrs, bufs, write)
}

// BatchRead reads len(addrs) blocks as one parallel batch. dsts[i] receives
// block addrs[i]. The batch costs len(addrs) block reads but only as many
// parallel steps as the worst single disk must serve, and — with a non-zero
// DiskLatency — only that many service times on the wall clock, because
// each disk's share is reserved on its own timeline. Validation happens
// block by block; a batch refused part-way still moves and charges its
// valid prefix, at no step cost.
func (v *Volume) BatchRead(addrs []int64, dsts [][]byte) error {
	return v.finish(v.transfer(addrs, dsts, false))
}

// BatchWrite writes len(addrs) blocks as one parallel batch, the write-side
// dual of BatchRead.
func (v *Volume) BatchWrite(addrs []int64, srcs [][]byte) error {
	return v.finish(v.transfer(addrs, srcs, true))
}

// BatchReadAsync is BatchRead split at the wait: it charges the counters,
// reserves the service time, moves the bytes and returns the transfer's
// error before it returns, together with the deadline at which the batch's
// reservation runs out (zero when nothing was reserved). The caller
// overlaps computation with that simulated transfer and hands the deadline
// to Wait once it needs the blocks; this is the primitive the stream
// prefetcher builds forecasting read-ahead on. A caller that models its
// overlap honestly treats dsts as in flight until that Wait returns. A
// pipeline books its next transfer before it waits out the last, so the
// disks stay busy through a sleep that overshoots its deadline.
func (v *Volume) BatchReadAsync(addrs []int64, dsts [][]byte) (deadline time.Time, err error) {
	return v.transfer(addrs, dsts, false)
}

// BatchWriteAsync is BatchWrite split at the wait, the write-behind dual of
// BatchReadAsync: the bytes of srcs are on the disks when it returns, so a
// read issued after it sees them whether or not the deadline has been
// waited, and Wait only sleeps out the reserved model time.
func (v *Volume) BatchWriteAsync(addrs []int64, srcs [][]byte) (deadline time.Time, err error) {
	return v.transfer(addrs, srcs, true)
}
