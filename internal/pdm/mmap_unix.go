//go:build unix && !openbsd

package pdm

import (
	"errors"
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only and shared, so reads
// through the mapping see the page cache that pwrite fills. The mapping
// may run past the end of the file; the caller never touches bytes the
// file does not hold. OpenBSD is left out: without a unified buffer cache
// its mappings are not kept coherent with write(2).
func mapFile(f *os.File, size int64) ([]byte, error) {
	if int64(int(size)) != size {
		return nil, errors.ErrUnsupported
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	var m []byte
	var merr error
	if err := rc.Control(func(fd uintptr) {
		m, merr = syscall.Mmap(int(fd), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	}); err != nil {
		return nil, err
	}
	return m, merr
}

// unmapFile releases a mapping made by mapFile.
func unmapFile(m []byte) error { return syscall.Munmap(m) }
