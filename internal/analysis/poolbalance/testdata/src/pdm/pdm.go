// Package pdm is a self-contained stand-in for em/internal/pdm: the
// analyzers match resources by defining-package basename plus type name,
// so these stubs exercise exactly the same matching as the real package.
package pdm

type errNoFrames struct{}

func (errNoFrames) Error() string { return "pdm: no frames" }

// ErrNoFrames mirrors the real pool-exhaustion error.
var ErrNoFrames error = errNoFrames{}

// Frame is one block-sized buffer on loan from a Pool.
type Frame struct {
	Buf []byte
}

// Release returns the frame to its pool.
func (f *Frame) Release() {}

// Pool hands out frames against the memory budget.
type Pool struct{}

func (p *Pool) Alloc() (*Frame, error)         { return &Frame{}, nil }
func (p *Pool) MustAlloc() *Frame              { return &Frame{} }
func (p *Pool) AllocN(n int) ([]*Frame, error) { return nil, nil }

// Carve takes n frames from p as a pool of their own; Close gives them back.
func (p *Pool) Carve(n int) (*Pool, error) { return &Pool{}, nil }
func (p *Pool) Close()                     {}

// ReleaseAll releases every frame in frames.
func ReleaseAll(frames []*Frame) {}

// Sink consumes frames, taking ownership.
type Sink struct{}

func (s *Sink) Consume(f *Frame) error { return nil }

// Process uses a frame without taking ownership.
func Process(buf []byte) error { return nil }
