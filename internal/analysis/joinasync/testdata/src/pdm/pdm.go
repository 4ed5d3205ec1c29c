// Package pdm is a self-contained stand-in for em/internal/pdm's async
// batch surface: joinasync matches dispatching calls by the *Async name
// suffix plus a time.Time result, and releases by Wait with the deadline as
// an argument, so these stubs exercise exactly the same matching as the
// real package.
package pdm

import "time"

// Volume mirrors the async dispatch surface of the real parallel-disk
// volume.
type Volume struct{}

// BatchReadAsync dispatches a batched read and returns its deadline.
func (v *Volume) BatchReadAsync(addrs []int64, dsts [][]byte) (time.Time, error) {
	return time.Time{}, nil
}

// BatchWriteAsync dispatches a batched write and returns its deadline.
func (v *Volume) BatchWriteAsync(addrs []int64, srcs [][]byte) (time.Time, error) {
	return time.Time{}, nil
}

// Wait sleeps until a dispatched batch's deadline.
func (v *Volume) Wait(deadline time.Time) {}

// Prep stands in for work between dispatch and wait.
func Prep() error { return nil }
