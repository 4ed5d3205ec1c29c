package pdm

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func testConfig() Config {
	return Config{BlockBytes: 64, MemBlocks: 16, Disks: 4}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{BlockBytes: 64, MemBlocks: 4, Disks: 1}, true},
		{"zero block", Config{BlockBytes: 0, MemBlocks: 4, Disks: 1}, false},
		{"negative block", Config{BlockBytes: -8, MemBlocks: 4, Disks: 1}, false},
		{"one frame", Config{BlockBytes: 64, MemBlocks: 1, Disks: 1}, false},
		{"zero disks", Config{BlockBytes: 64, MemBlocks: 4, Disks: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("expected valid, got %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}
}

func TestVolumeReadWriteRoundTrip(t *testing.T) {
	v := MustVolume(testConfig())
	addr := v.Alloc(1)
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	if err := v.WriteBlock(addr, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := v.ReadBlock(addr, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("round trip mismatch")
	}
}

func TestVolumeReadUnwrittenIsZero(t *testing.T) {
	v := MustVolume(testConfig())
	addr := v.Alloc(3)
	dst := make([]byte, 64)
	dst[0] = 0xFF
	if err := v.ReadBlock(addr+2, dst); err != nil {
		t.Fatal(err)
	}
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestVolumeBadAddress(t *testing.T) {
	v := MustVolume(testConfig())
	buf := make([]byte, 64)
	if err := v.ReadBlock(0, buf); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("unallocated read: got %v, want ErrBadAddress", err)
	}
	v.Alloc(2)
	if err := v.ReadBlock(5, buf); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("past-end read: got %v, want ErrBadAddress", err)
	}
	if err := v.WriteBlock(-1, buf); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("negative write: got %v, want ErrBadAddress", err)
	}
}

func TestVolumeBadBuffer(t *testing.T) {
	v := MustVolume(testConfig())
	addr := v.Alloc(1)
	if err := v.WriteBlock(addr, make([]byte, 63)); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("short write buffer: got %v", err)
	}
	if err := v.ReadBlock(addr, make([]byte, 65)); !errors.Is(err, ErrBadBuffer) {
		t.Fatalf("long read buffer: got %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	v := MustVolume(testConfig())
	addr := v.Alloc(8)
	buf := make([]byte, 64)
	for i := int64(0); i < 8; i++ {
		if err := v.WriteBlock(addr+i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 4; i++ {
		if err := v.ReadBlock(addr+i, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := v.Stats()
	if s.Writes != 8 || s.Reads != 4 || s.Total() != 12 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Steps != 12 {
		t.Fatalf("unbatched steps = %d, want 12", s.Steps)
	}
	s.Reset()
	if s.Total() != 0 || s.Steps != 0 {
		t.Fatal("reset failed")
	}
}

func TestStatsPerDisk(t *testing.T) {
	v := MustVolume(Config{BlockBytes: 16, MemBlocks: 4, Disks: 2})
	addr := v.Alloc(4) // addresses 0..3 stripe disks 0,1,0,1
	buf := make([]byte, 16)
	for i := int64(0); i < 4; i++ {
		if err := v.WriteBlock(addr+i, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := v.Stats()
	if s.PerDiskWrites[0] != 2 || s.PerDiskWrites[1] != 2 {
		t.Fatalf("per-disk writes = %v", s.PerDiskWrites)
	}
}

func TestBatchParallelSteps(t *testing.T) {
	v := MustVolume(Config{BlockBytes: 16, MemBlocks: 8, Disks: 4})
	base := v.Alloc(4) // one block on each of the 4 disks
	bufs := make([][]byte, 4)
	addrs := make([]int64, 4)
	for i := range bufs {
		bufs[i] = make([]byte, 16)
		addrs[i] = base + int64(i)
	}
	if err := v.BatchWrite(addrs, bufs); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().Steps; got != 1 {
		t.Fatalf("striped batch of 4 on 4 disks should cost 1 step, got %d", got)
	}
	v.Stats().Reset()
	// Four blocks all on the same disk: addresses congruent mod 4.
	same := v.Alloc(13) // 13 blocks; pick addrs base2, base2+4, base2+8, base2+12
	collide := []int64{same, same + 4, same + 8, same + 12}
	if err := v.BatchWrite(collide, bufs); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().Steps; got != 4 {
		t.Fatalf("colliding batch of 4 should cost 4 steps, got %d", got)
	}
}

// TestAsyncDispatchAllocatesNothing pins the cost of splitting a batch at
// its wait: an async dispatch returns a deadline, not a closure, so a
// dispatch plus its Wait allocates no more than the synchronous batch does.
func TestAsyncDispatchAllocatesNothing(t *testing.T) {
	v := MustVolume(Config{BlockBytes: 64, MemBlocks: 8, Disks: 4})
	base := v.Alloc(4)
	addrs := []int64{base, base + 1, base + 2, base + 3}
	bufs := make([][]byte, len(addrs))
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	for _, c := range []struct {
		name  string
		async func([]int64, [][]byte) (time.Time, error)
	}{{"BatchReadAsync", v.BatchReadAsync}, {"BatchWriteAsync", v.BatchWriteAsync}} {
		n := testing.AllocsPerRun(100, func() {
			deadline, err := c.async(addrs, bufs)
			if err != nil {
				t.Fatal(err)
			}
			v.Wait(deadline)
		})
		if n != 0 {
			t.Errorf("%s + Wait: %v allocations per batch, want 0", c.name, n)
		}
	}
}

func TestBatchLengthMismatch(t *testing.T) {
	v := MustVolume(testConfig())
	base := v.Alloc(2)
	if err := v.BatchRead([]int64{base, base + 1}, [][]byte{make([]byte, 64)}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if err := v.BatchWrite([]int64{base}, nil); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestBatchEmptyIsFree(t *testing.T) {
	v := MustVolume(testConfig())
	if err := v.BatchRead(nil, nil); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Total() != 0 || v.Stats().Steps != 0 {
		t.Fatal("empty batch should cost nothing")
	}
}

func TestAllocFreeReuse(t *testing.T) {
	v := MustVolume(testConfig())
	a := v.Alloc(1)
	b := v.Alloc(1)
	v.Free(a)
	c := v.Alloc(1)
	if c != a {
		t.Fatalf("freed block not reused: got %d want %d", c, a)
	}
	if b == c {
		t.Fatal("distinct live blocks share an address")
	}
	// Multi-block allocations skip the free list to stay contiguous.
	v.Free(b)
	d := v.Alloc(2)
	if d == b {
		t.Fatal("multi-block alloc must not come from the free list")
	}
}

func TestPoolBudget(t *testing.T) {
	p := NewPool(64, 3)
	f1 := p.MustAlloc()
	f2 := p.MustAlloc()
	f3 := p.MustAlloc()
	if _, err := p.Alloc(); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("4th alloc: got %v, want ErrNoFrames", err)
	}
	if p.InUse() != 3 || p.Free() != 0 || p.Peak() != 3 {
		t.Fatalf("accounting: inUse=%d free=%d peak=%d", p.InUse(), p.Free(), p.Peak())
	}
	f2.Release()
	if p.InUse() != 2 || p.Free() != 1 {
		t.Fatal("release accounting wrong")
	}
	f4, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	f1.Release()
	f3.Release()
	f4.Release()
	if p.InUse() != 0 {
		t.Fatal("not all frames returned")
	}
	if p.Peak() != 3 {
		t.Fatalf("peak should remain 3, got %d", p.Peak())
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool(8, 2)
	f := p.MustAlloc()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	f.Release()
}

func TestPoolAllocNRollsBack(t *testing.T) {
	p := NewPool(8, 3)
	held := p.MustAlloc()
	if _, err := p.AllocN(3); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("AllocN beyond budget: %v", err)
	}
	if p.InUse() != 1 {
		t.Fatalf("failed AllocN must roll back, inUse=%d", p.InUse())
	}
	frames, err := p.AllocN(2)
	if err != nil {
		t.Fatal(err)
	}
	ReleaseAll(frames)
	held.Release()
}

func TestPoolFrameReuseKeepsSize(t *testing.T) {
	p := NewPool(32, 2)
	f := p.MustAlloc()
	buf := f.Buf
	f.Release()
	g := p.MustAlloc()
	if len(g.Buf) != 32 {
		t.Fatalf("recycled frame has %d bytes", len(g.Buf))
	}
	if &buf[0] != &g.Buf[0] {
		t.Fatal("frame buffer should be recycled, not reallocated")
	}
	g.Release()
}

// Property: any sequence of writes followed by reads returns exactly the
// written data, regardless of address order.
func TestQuickWriteReadConsistency(t *testing.T) {
	cfg := Config{BlockBytes: 32, MemBlocks: 4, Disks: 3}
	f := func(payloads [][32]byte) bool {
		if len(payloads) == 0 {
			return true
		}
		if len(payloads) > 64 {
			payloads = payloads[:64]
		}
		v := MustVolume(cfg)
		base := v.Alloc(len(payloads))
		for i, p := range payloads {
			if err := v.WriteBlock(base+int64(i), p[:]); err != nil {
				return false
			}
		}
		buf := make([]byte, 32)
		// Read back in reverse order.
		for i := len(payloads) - 1; i >= 0; i-- {
			if err := v.ReadBlock(base+int64(i), buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, payloads[i][:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: parallel step cost of a batch is between ceil(k/D) and k.
func TestQuickStepCostBounds(t *testing.T) {
	v := MustVolume(Config{BlockBytes: 8, MemBlocks: 4, Disks: 4})
	base := v.Alloc(1024)
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		addrs := make([]int64, len(raw))
		bufs := make([][]byte, len(raw))
		for i, r := range raw {
			addrs[i] = base + int64(r%1024)
			bufs[i] = make([]byte, 8)
		}
		before := v.Stats().Steps
		if err := v.BatchRead(addrs, bufs); err != nil {
			t.Log(err)
			return false
		}
		cost := v.Stats().Steps - before
		k := uint64(len(addrs))
		lo := (k + 3) / 4
		return cost >= lo && cost <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
