package pdm

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
)

// fileBackend maps each simulated disk to its own file under a
// caller-supplied directory: disk d's slot s occupies bytes
// [s·BlockBytes, (s+1)·BlockBytes) of dir/diskDDD.dat. The files are
// ordinary buffered files at every block size, so the counters and
// semantics match the in-memory simulation and only the wall clock
// changes meaning.
//
// Every write is one pwrite (WriteAt), so a full disk or a failing medium
// is an error value and the file grows as slots are written. A read is a
// copy out of a read-only shared mapping of the disk's file, with no
// syscall per read; the unified page cache keeps that mapping coherent
// with the writes. Mapped pages are page cache, not frames charged to a
// Pool's M. The backend records each disk's high-water mark, the bytes
// written so far: a block at or past it is a zero block without touching
// the mapping, so nothing is read past the end of the file, and a read
// past the end of the mapping remaps it at no less than double its size.
// A page that cannot be read — the file was truncated or is failing under
// a live volume — makes the read return an error naming the disk and slot
// instead of crashing the process. Where mapping is unavailable or fails,
// that disk reads with pread.
//
// Backing files are created — truncated if a previous run left them behind,
// since a fresh volume's never-written slots must read as zeros — at volume
// construction and grow sparsely as high slots are written; a read of a
// slot beyond the data written so far yields zeros, exactly like the
// in-memory simulation. The backend never fsyncs: the model
// measures transfer scheduling, not durability. Close unmaps and closes the
// files but leaves them on disk for inspection; callers who want cleanup
// own the directory (tests use t.TempDir()).
type fileBackend struct {
	blockBytes int
	files      []*os.File
	readAt     []bool   // per-disk: reads use ReadAt (no mapping)
	maps       [][]byte // per-disk read-only shared mapping; nil until first needed
	written    []int64  // per-disk high-water mark in bytes
}

func newFileBackend(dir string, disks, blockBytes int) (*fileBackend, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("pdm: file backend: %w", err)
	}
	fb := &fileBackend{
		blockBytes: blockBytes,
		files:      make([]*os.File, disks),
		readAt:     make([]bool, disks),
		maps:       make([][]byte, disks),
		written:    make([]int64, disks),
	}
	for d := range fb.files {
		path := filepath.Join(dir, fmt.Sprintf("disk%03d.dat", d))
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
		if err != nil {
			fb.Close()
			return nil, fmt.Errorf("pdm: file backend: %w", err)
		}
		fb.files[d] = f
	}
	return fb, nil
}

func (fb *fileBackend) Service(disk int, slot int64, buf []byte, write bool) error {
	f := fb.files[disk]
	off := slot * int64(fb.blockBytes)
	if write {
		if _, err := f.WriteAt(buf, off); err != nil {
			return fmt.Errorf("pdm: disk %d write slot %d: %w", disk, slot, err)
		}
		fb.written[disk] = max(fb.written[disk], off+int64(len(buf)))
		return nil
	}
	if !fb.readAt[disk] {
		// Whole blocks are written, so a block that ends past the mark
		// starts at or past it: never written, a zero block.
		end := off + int64(len(buf))
		if end > fb.written[disk] {
			clear(buf)
			return nil
		}
		// A disk that cannot be mapped falls through to ReadAt.
		if end <= int64(len(fb.maps[disk])) || fb.remap(disk) {
			if !copyGuarded(buf, fb.maps[disk][off:end]) {
				return fmt.Errorf("pdm: disk %d read slot %d: fault on mapped page", disk, slot)
			}
			return nil
		}
	}
	n, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("pdm: disk %d read slot %d: %w", disk, slot, err)
	}
	// A slot past the bytes written so far reads as a zero block, mirroring
	// the simulation's freshly formatted regions. Whole blocks are always
	// written, so a short read can only mean end of file.
	clear(buf[n:])
	return nil
}

// remap maps disk's file afresh at no less than double the old mapping and
// no less than its high-water mark, and unmaps the old one. If mapping
// fails it reports false, and the disk reads with ReadAt from then on.
func (fb *fileBackend) remap(disk int) bool {
	old := fb.maps[disk]
	m, err := mapFile(fb.files[disk], max(2*int64(len(old)), fb.written[disk]))
	if old != nil {
		// munmap fails only on a range this backend never mapped.
		_ = unmapFile(old)
	}
	fb.maps[disk] = m
	if err != nil {
		fb.readAt[disk] = true
		return false
	}
	return true
}

// copyGuarded copies src, a range of a mapping, into dst. It reports false
// instead of crashing with SIGBUS when a page of src cannot be read, as
// when the file was truncated under the mapping. It does not allocate.
func copyGuarded(dst, src []byte) (ok bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	copy(dst, src)
	return true
}

func (fb *fileBackend) Close() error {
	var first error
	for d, m := range fb.maps {
		if m != nil {
			if err := unmapFile(m); err != nil && first == nil {
				first = err
			}
			fb.maps[d] = nil
		}
	}
	for _, f := range fb.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
