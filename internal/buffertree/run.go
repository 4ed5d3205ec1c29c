package buffertree

import "em/internal/stream"

// Run is the output of SealOps: a key-sorted file of resolved operations,
// one per buffered key, delete tombstones kept.
type Run struct {
	file *stream.File[Op]
}

// Len returns the number of operations in the run.
func (r *Run) Len() int64 { return r.file.Len() }

// File exposes the underlying sorted op file.
func (r *Run) File() *stream.File[Op] { return r.file }

// Release returns the run's blocks to the volume.
func (r *Run) Release() { r.file.Release() }
