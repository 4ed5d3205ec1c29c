// Package btree is a self-contained stand-in for em/internal/btree's bulk
// loader: a push-side sink that a successful Close turns into a tree and
// Abort discards.
package btree

// Tree is a finished index.
type Tree struct{}

// Loader packs appended records into leaves; it holds frames and nodes
// until closed or aborted.
type Loader struct{}

func (l *Loader) Append(k uint64) error { return nil }
func (l *Loader) Close() error          { return nil }
func (l *Loader) Abort()                {}
func (l *Loader) Tree() *Tree           { return &Tree{} }

// NewLoader starts a bulk load.
func NewLoader(frames int) (*Loader, error) { return &Loader{}, nil }
