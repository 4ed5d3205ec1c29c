package pdm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// forEachBackend runs fn once against the in-memory simulation and once
// against the file-backed store (rooted in a fresh t.TempDir()), with an
// otherwise identical configuration. It is the shared harness every
// backend-parameterised test in this module builds on.
func forEachBackend(t *testing.T, cfg Config, fn func(t *testing.T, v *Volume)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		v := MustVolume(cfg)
		defer v.Close()
		fn(t, v)
	})
	t.Run("file", func(t *testing.T) {
		c := cfg
		c.Dir = t.TempDir()
		v := MustVolume(c)
		defer func() {
			if err := v.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		fn(t, v)
	})
}

// TestBackendRoundTrip checks single-block and batched write/read round
// trips plus zero-fill of never-written blocks on both backends.
func TestBackendRoundTrip(t *testing.T) {
	cfg := Config{BlockBytes: 64, MemBlocks: 8, Disks: 3}
	forEachBackend(t, cfg, func(t *testing.T, v *Volume) {
		base := v.Alloc(12)
		src := make([]byte, 64)
		got := make([]byte, 64)
		for i := int64(0); i < 6; i++ {
			for j := range src {
				src[j] = byte(i*31 + int64(j))
			}
			if err := v.WriteBlock(base+i, src); err != nil {
				t.Fatal(err)
			}
			if err := v.ReadBlock(base+i, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(src, got) {
				t.Fatalf("block %d round trip mismatch", i)
			}
		}
		// Blocks 6..11 were allocated but never written: zero reads.
		if err := v.ReadBlock(base+9, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 64)) {
			t.Fatal("unwritten block not zero")
		}
		// Batched round trip over all three disks.
		addrs := []int64{base, base + 1, base + 2, base + 5}
		srcs := make([][]byte, len(addrs))
		dsts := make([][]byte, len(addrs))
		for i := range addrs {
			srcs[i] = bytes.Repeat([]byte{byte(0xA0 + i)}, 64)
			dsts[i] = make([]byte, 64)
		}
		if err := v.BatchWrite(addrs, srcs); err != nil {
			t.Fatal(err)
		}
		if err := v.BatchRead(addrs, dsts); err != nil {
			t.Fatal(err)
		}
		for i := range addrs {
			if !bytes.Equal(srcs[i], dsts[i]) {
				t.Fatalf("batch item %d mismatch", i)
			}
		}
	})
}

// TestFileBackendWritesRealFiles verifies the on-disk layout contract: one
// file per disk under Dir, with block address a stored on disk a mod D at
// byte offset (a div D)·BlockBytes.
func TestFileBackendWritesRealFiles(t *testing.T) {
	const (
		blockBytes = 32
		disks      = 2
	)
	dir := t.TempDir()
	v := MustVolume(Config{BlockBytes: blockBytes, MemBlocks: 4, Disks: disks, Dir: dir})
	base := v.Alloc(4) // disk0 slots 0,1 and disk1 slots 0,1 (base is 0 on a fresh volume)
	for i := int64(0); i < 4; i++ {
		if err := v.WriteBlock(base+i, bytes.Repeat([]byte{byte(i + 1)}, blockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < disks; d++ {
		raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("disk%03d.dat", d)))
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 2; slot++ {
			addr := base + int64(slot*disks+d)
			want := bytes.Repeat([]byte{byte(addr - base + 1)}, blockBytes)
			got := raw[slot*blockBytes : (slot+1)*blockBytes]
			if !bytes.Equal(got, want) {
				t.Fatalf("disk %d slot %d: got %v want %v", d, slot, got[0], want[0])
			}
		}
	}
}

// TestFileBackendTruncatesStaleFiles checks that a fresh volume pointed at
// a directory holding a previous run's disk files starts from zeros: the
// Backend contract says never-written slots read as zero blocks, and
// without truncation the first volume's bytes would leak into the second.
func TestFileBackendTruncatesStaleFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{BlockBytes: 32, MemBlocks: 4, Disks: 2, Dir: dir}
	v1 := MustVolume(cfg)
	base := v1.Alloc(4)
	for i := int64(0); i < 4; i++ {
		if err := v1.WriteBlock(base+i, bytes.Repeat([]byte{0xEE}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}

	v2 := MustVolume(cfg)
	defer v2.Close()
	got := make([]byte, 32)
	if err := v2.ReadBlock(v2.Alloc(4), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 32)) {
		t.Fatalf("fresh volume read stale bytes from a previous run: % x", got[:4])
	}
}

// TestFileBackendBadDir checks that an unusable directory fails volume
// construction instead of failing the first transfer.
func TestFileBackendBadDir(t *testing.T) {
	// A path routed through a regular file cannot be MkdirAll'd.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	_, err := NewVolume(Config{BlockBytes: 32, MemBlocks: 4, Disks: 2, Dir: filepath.Join(blocker, "sub")})
	if err == nil {
		t.Fatal("NewVolume succeeded under an unusable directory")
	}
}

// TestFileBackendServiceError checks that a backend transfer failure
// surfaces through the batched path rather than being swallowed. The files
// are yanked out from under a live volume — crude, but exactly what a dying
// disk looks like to the engine.
func TestFileBackendServiceError(t *testing.T) {
	dir := t.TempDir()
	v := MustVolume(Config{BlockBytes: 32, MemBlocks: 4, Disks: 2, Dir: dir})
	base := v.Alloc(4)
	buf := bytes.Repeat([]byte{1}, 32)
	if err := v.WriteBlock(base, buf); err != nil {
		t.Fatal(err)
	}
	// Close the underlying files directly; subsequent transfers must error.
	fb := v.backend.(*fileBackend)
	for _, f := range fb.files {
		f.Close()
	}
	if err := v.WriteBlock(base+1, buf); err == nil {
		t.Fatal("write on closed backing file succeeded")
	}
	dsts := [][]byte{make([]byte, 32), make([]byte, 32)}
	if err := v.BatchRead([]int64{base, base + 1}, dsts); err == nil {
		t.Fatal("batched read on closed backing file succeeded")
	}
}

// TestFileBackendDirectIO runs a round trip at a 4 KiB-multiple block size,
// the shape that qualifies for O_DIRECT on Linux. Whether direct I/O
// actually engages depends on the filesystem under TMPDIR (tmpfs refuses
// the flag and falls back to buffered I/O), so the test asserts only
// correctness and reports which path served it.
func TestFileBackendDirectIO(t *testing.T) {
	const blockBytes = 4096
	v := MustVolume(Config{BlockBytes: blockBytes, MemBlocks: 4, Disks: 2, Dir: t.TempDir()})
	defer v.Close()
	fb := v.backend.(*fileBackend)
	t.Logf("direct I/O engaged per disk: %v", fb.direct)
	base := v.Alloc(9) // the ninth block is never written
	src := make([]byte, blockBytes)
	got := make([]byte, blockBytes)
	for i := int64(0); i < 8; i++ {
		for j := range src {
			src[j] = byte(int64(j)*7 + i)
		}
		if err := v.WriteBlock(base+i, src); err != nil {
			t.Fatal(err)
		}
		if err := v.ReadBlock(base+i, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src, got) {
			t.Fatalf("block %d round trip mismatch", i)
		}
	}
	// The unwritten block lies past the end of its disk's block-aligned
	// file: it reads as a zero block.
	for j := range got {
		got[j] = 0xff
	}
	if err := v.ReadBlock(base+8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, blockBytes)) {
		t.Fatal("an unwritten block past EOF did not read as zeros")
	}
}

// TestAlignedBlock checks the O_DIRECT staging buffer really is aligned and
// exactly one block long.
func TestAlignedBlock(t *testing.T) {
	for _, n := range []int{512, 4096, 8192} {
		b := alignedBlock(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("alignedBlock(%d): len %d cap %d", n, len(b), cap(b))
		}
		if rem := uintptr(unsafe.Pointer(&b[0])) % directAlign; rem != 0 {
			t.Fatalf("alignedBlock(%d): misaligned by %d", n, rem)
		}
	}
}

// backendWorkload drives a deterministic mixed workload — allocation,
// single-block and batched transfers, frees, reuse — against v and returns
// the final counters plus a digest of every block read.
func backendWorkload(t *testing.T, v *Volume, seed int64) (Stats, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bb := v.BlockBytes()
	base := v.Alloc(64)
	var digest []byte
	buf := make([]byte, bb)
	for op := 0; op < 200; op++ {
		switch rng.Intn(4) {
		case 0: // single write
			addr := base + rng.Int63n(64)
			for j := range buf {
				buf[j] = byte(rng.Intn(256))
			}
			if err := v.WriteBlock(addr, buf); err != nil {
				t.Fatal(err)
			}
		case 1: // single read
			addr := base + rng.Int63n(64)
			if err := v.ReadBlock(addr, buf); err != nil {
				t.Fatal(err)
			}
			digest = append(digest, buf...)
		case 2: // batched write of k distinct blocks
			k := 1 + rng.Intn(6)
			addrs := make([]int64, k)
			srcs := make([][]byte, k)
			for i := range addrs {
				addrs[i] = base + rng.Int63n(64)
				srcs[i] = bytes.Repeat([]byte{byte(rng.Intn(256))}, bb)
			}
			if err := v.BatchWrite(addrs, srcs); err != nil {
				t.Fatal(err)
			}
		case 3: // batched read
			k := 1 + rng.Intn(6)
			addrs := make([]int64, k)
			dsts := make([][]byte, k)
			for i := range addrs {
				addrs[i] = base + rng.Int63n(64)
				dsts[i] = make([]byte, bb)
			}
			if err := v.BatchRead(addrs, dsts); err != nil {
				t.Fatal(err)
			}
			for _, d := range dsts {
				digest = append(digest, d...)
			}
		}
	}
	return v.stats.Snapshot(), digest
}

// growthWorkload drives the edges of the file backend's mapped reads on
// every disk. Each round writes one block per disk at a slot that outruns
// the file's current mapping and reads it straight back, which remaps; then
// it reads, in one batch, a slot below the high-water mark that is mostly a
// hole, a slot past the mark, and the block just written.
func growthWorkload(t *testing.T, v *Volume, seed int64) (Stats, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bb, disks := v.BlockBytes(), int64(v.Disks())
	const slots = 600
	base := v.Alloc(slots * int(disks))
	addr := func(d, slot int64) int64 { return base + slot*disks + d }
	var digest []byte
	read := func(addrs ...int64) {
		dsts := make([][]byte, len(addrs))
		for i := range dsts {
			dsts[i] = make([]byte, bb)
		}
		if err := v.BatchRead(addrs, dsts); err != nil {
			t.Fatal(err)
		}
		for _, d := range dsts {
			digest = append(digest, d...)
		}
	}
	src := make([]byte, bb)
	for _, top := range []int64{0, 2, 7, 19, 50, 130, 330, slots - 2} {
		for d := int64(0); d < disks; d++ {
			for j := range src {
				src[j] = byte(rng.Intn(256))
			}
			if err := v.WriteBlock(addr(d, top), src); err != nil {
				t.Fatal(err)
			}
			read(addr(d, top))
			hole := addr(rng.Int63n(disks), rng.Int63n(top+1))
			past := addr(rng.Int63n(disks), top+1+rng.Int63n(slots-1-top))
			read(hole, past, addr(d, top))
		}
	}
	return v.stats.Snapshot(), digest
}

// diskPaths names the path each disk of a file volume reads through.
func diskPaths(v *Volume) []string {
	fb := v.backend.(*fileBackend)
	paths := make([]string, len(fb.files))
	for d := range paths {
		switch {
		case fb.direct[d]:
			paths[d] = "O_DIRECT pread"
		case fb.readAt[d]:
			paths[d] = "pread (no mapping)"
		default:
			paths[d] = fmt.Sprintf("mapped (%d bytes mapped, %d written)", len(fb.maps[d]), fb.written[d])
		}
	}
	return paths
}

// TestQuickBackendsAgree is the engine-level sim==file property: the same
// seeded workload on a memory-backed and a file-backed volume must produce
// byte-identical Stats snapshots (reads, writes, steps, per-disk shards)
// and byte-identical read contents. The mixed workload runs at a small
// block; the growth workload runs at 4080 bytes, which is never O_DIRECT
// and so always mapped where the platform maps, and at 4096, which is
// O_DIRECT where the filesystem takes the flag and mapped where it does
// not (tmpfs).
func TestQuickBackendsAgree(t *testing.T) {
	for _, tc := range []struct {
		name       string
		blockBytes int
		work       func(*testing.T, *Volume, int64) (Stats, []byte)
		runs       int
		endsOnRead bool // the workload's last transfer on each disk is a read
	}{
		{"mixed", 48, backendWorkload, 12, false},
		{"growth-4080", 4080, growthWorkload, 4, true},
		{"growth-4096", 4096, growthWorkload, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prop := func(seedRaw uint32, disksRaw uint8, latencyOn bool) bool {
				seed := int64(seedRaw)
				disks := 1 + int(disksRaw)%4
				var latency time.Duration
				if latencyOn {
					latency = 5 * time.Microsecond
				}
				cfg := Config{BlockBytes: tc.blockBytes, MemBlocks: 8, Disks: disks, DiskLatency: latency}

				mv := MustVolume(cfg)
				memStats, memDigest := tc.work(t, mv, seed)
				mv.Close()

				fcfg := cfg
				fcfg.Dir = t.TempDir()
				fv := MustVolume(fcfg)
				fileStats, fileDigest := tc.work(t, fv, seed)
				t.Logf("D=%d: %v", disks, diskPaths(fv))
				if fb := fv.backend.(*fileBackend); tc.endsOnRead && runtime.GOOS == "linux" {
					// Each disk that maps followed its file's growth.
					for d := range fb.files {
						if !fb.direct[d] && (fb.readAt[d] || int64(len(fb.maps[d])) < fb.written[d]) {
							t.Logf("disk %d: mapping did not follow growth: %s", d, diskPaths(fv)[d])
							return false
						}
					}
				}
				if err := fv.Close(); err != nil {
					t.Logf("file volume close: %v", err)
					return false
				}

				if !reflect.DeepEqual(memStats, fileStats) {
					t.Logf("stats diverge: mem %+v file %+v", memStats, fileStats)
					return false
				}
				if !bytes.Equal(memDigest, fileDigest) {
					t.Logf("read contents diverge (seed %d, D=%d)", seed, disks)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: tc.runs}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFileBackendTruncatedUnderMapping truncates a disk file behind a live
// volume's back after a mapped read, as a failing medium might. A read of a
// block past the new end faults on the mapping and must return an error
// naming the disk and slot, not kill the process with SIGBUS; a block still
// inside the file reads correctly; Close unmaps, and no frame or block is
// left behind.
func TestFileBackendTruncatedUnderMapping(t *testing.T) {
	const bb = 4080
	dir := t.TempDir()
	v := MustVolume(Config{BlockBytes: bb, MemBlocks: 4, Disks: 1, Dir: dir})
	pool := PoolFor(v)
	fb := v.backend.(*fileBackend)
	base := v.Alloc(4)
	src, dst := pool.MustAlloc(), pool.MustAlloc()
	for i := int64(0); i < 4; i++ {
		for j := range src.Buf {
			src.Buf[j] = byte(i + 1)
		}
		if err := v.WriteBlock(base+i, src.Buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.ReadBlock(base+3, dst.Buf); err != nil {
		t.Fatal(err)
	}
	if fb.maps[0] == nil {
		t.Skipf("disk 0 reads through %s", diskPaths(v)[0])
	}
	if err := os.Truncate(filepath.Join(dir, "disk000.dat"), bb); err != nil {
		t.Fatal(err)
	}
	err := v.ReadBlock(base+3, dst.Buf)
	if err == nil || !strings.Contains(err.Error(), "disk 0 read slot 3") {
		t.Fatalf("read past the truncated end: err %v, want an error naming disk 0 slot 3", err)
	}
	if err := v.ReadBlock(base, dst.Buf); err != nil {
		t.Fatalf("read inside the truncated file: %v", err)
	}
	if !bytes.Equal(dst.Buf, bytes.Repeat([]byte{1}, bb)) {
		t.Fatalf("block 0 after truncation reads % x…", dst.Buf[:4])
	}
	src.Release()
	dst.Release()
	for i := int64(0); i < 4; i++ {
		v.Free(base + i)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if fb.maps[0] != nil {
		t.Fatal("Close left disk 0 mapped")
	}
	if pool.InUse() != 0 || v.Allocated() != v.FreeBlocks() {
		t.Fatalf("left behind: %d frames, %d blocks", pool.InUse(), v.Allocated()-v.FreeBlocks())
	}
}

// BenchmarkFileRead times random single-block ReadBlock calls on a warmed
// file volume at BlockBytes 4080, a size never opened O_DIRECT, so every
// read comes from the page cache: out of the disk file's mapping where the
// platform maps, else by pread. One iteration is 2^16 reads over 4096
// blocks on 4 disks; ns/block and allocs/block divide it by the reads, and
// allocs/block must be 0.
func BenchmarkFileRead(b *testing.B) {
	const (
		bb     = 4080
		blocks = 1 << 12
		reads  = 1 << 16
	)
	v := MustVolume(Config{BlockBytes: bb, MemBlocks: 8, Disks: 4, Dir: b.TempDir()})
	defer v.Close()
	base := v.Alloc(blocks)
	buf := make([]byte, bb)
	for i := int64(0); i < blocks; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := v.WriteBlock(base+i, buf); err != nil {
			b.Fatal(err)
		}
	}
	addrs := make([]int64, reads)
	rng := rand.New(rand.NewSource(1))
	for i := range addrs {
		addrs[i] = base + rng.Int63n(blocks)
	}
	for _, a := range addrs[:blocks] {
		if err := v.ReadBlock(a, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("%v", diskPaths(v))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			if err := v.ReadBlock(a, buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * reads
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/block")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/block")
}
