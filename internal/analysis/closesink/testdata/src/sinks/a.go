// Package sinks is the closesink corpus: the leak shapes drop an open
// reader/writer on an unwind (leaking the frames and pins it holds — the
// class PR 2's mid-loop Close hardening fixed), and the ok shapes are the
// lifecycle idioms the sweep must stay silent on.
package sinks

import (
	"btree"
	"index"
	"shard"
	"stream"
)

// leakOnErrorReturn opens a reader and forgets it on a later error unwind.
func leakOnErrorReturn(path string) error {
	r, err := stream.OpenReader[int](path) // want `open stream/handle "r" \(from OpenReader\) is not released`
	if err != nil {
		return err
	}
	if err := stream.Validate(path); err != nil {
		return err // leak: r still holds its frames
	}
	r.Close()
	return nil
}

// leakWriterNeverClosed never closes, so the tail block is never flushed.
func leakWriterNeverClosed(path string, vs []int) error {
	w, err := stream.OpenWriter[int](path) // want `open stream/handle "w" \(from OpenWriter\) is not released`
	if err != nil {
		return err
	}
	for _, v := range vs {
		if err := w.Push(v); err != nil {
			return err
		}
	}
	return nil
}

// leakInterfaceSource leaks behind the Source interface too.
func leakInterfaceSource(path string) (int, error) {
	src, err := stream.OpenSource[int](path) // want `open stream/handle "src" \(from OpenSource\) is not released`
	if err != nil {
		return 0, err
	}
	sum := 0
	for v, ok := src.Next(); ok; v, ok = src.Next() {
		sum += v
	}
	return sum, src.Err() // leak: src is never closed
}

// okErrorCheckedThenClosed is the canonical correct shape.
func okErrorCheckedThenClosed(path string) error {
	w, err := stream.OpenWriter[int](path)
	if err != nil {
		return err
	}
	if err := w.Push(1); err != nil {
		_ = w.Close()
		return err
	}
	return w.Close()
}

// okDeferredClose covers every path with a defer.
func okDeferredClose(path string) (int, error) {
	r, err := stream.OpenReader[int](path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	n := 0
	for _, ok := r.Next(); ok; _, ok = r.Next() {
		n++
	}
	return n, r.Err()
}

// okInterfaceDeferredClose closes a Source through the interface.
func okInterfaceDeferredClose(path string) error {
	src, err := stream.OpenSource[int](path)
	if err != nil {
		return err
	}
	defer src.Close()
	return stream.Validate(path)
}

// okReturned transfers the close obligation to the caller.
func okReturned(path string) (*stream.Reader[int], error) {
	r, err := stream.OpenReader[int](path)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// merger owns the sources parked in it.
type merger struct {
	srcs []stream.Source[int]
}

// okStoredInStruct parks the source in a struct that owns it.
func okStoredInStruct(m *merger, path string) error {
	src, err := stream.OpenSource[int](path)
	if err != nil {
		return err
	}
	m.srcs = append(m.srcs, src)
	return nil
}

// okNilGuardedDeferBeforeLoop registers cleanup before the loop that
// (re)assigns the writer — the partitioned-write idiom: the defer covers
// whichever writer is live when the function unwinds.
func okNilGuardedDeferBeforeLoop(paths []string) error {
	var w *stream.Writer[int]
	defer func() {
		if w != nil {
			_ = w.Close()
		}
	}()
	for _, p := range paths {
		if w != nil {
			if err := w.Close(); err != nil {
				w = nil
				return err
			}
		}
		var err error
		w, err = stream.OpenWriter[int](p)
		if err != nil {
			w = nil
			return err
		}
		if err := w.Push(1); err != nil {
			return err
		}
	}
	return nil
}

// leakShardScanner drops a cross-shard scanner on an error unwind —
// leaking frames on every volume the stitched scan spans.
func leakShardScanner(t *shard.Tree) (int, error) {
	sc, err := t.Scan(1, 2048) // want `open stream/handle "sc" \(from Scan\) is not released`
	if err != nil {
		return 0, err
	}
	cnt := 0
	for {
		_, ok, err := sc.Next()
		if err != nil {
			return 0, err // leak: sc still holds per-shard scanners
		}
		if !ok {
			return cnt, nil
		}
		cnt++
	}
}

// leakIndexSession never closes a session opened behind the unified
// index.Session interface, abandoning its reserved per-shard budgets.
func leakIndexSession(t *shard.Tree, keys []uint64) error {
	sess, err := t.NewSession(16, 0) // want `open stream/handle "sess" \(from NewSession\) is not released`
	if err != nil {
		return err
	}
	_, _, err = sess.GetBatch(keys)
	return err
}

// okShardScannerDeferred covers the cross-shard scanner with a defer.
func okShardScannerDeferred(t *shard.Tree) (int, error) {
	sc, err := t.Scan(1, 2048)
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	cnt := 0
	for {
		_, ok, err := sc.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return cnt, nil
		}
		cnt++
	}
}

// okIndexSessionClosed closes the interface-typed session on both paths.
func okIndexSessionClosed(t *shard.Tree, keys []uint64) error {
	sess, err := t.NewSession(16, 0)
	if err != nil {
		return err
	}
	if _, _, err := sess.GetBatch(keys); err != nil {
		_ = sess.Close()
		return err
	}
	return sess.Close()
}

// okGateClosure is the admission-gate retry shape: the closure opens the
// scanner into the enclosing function's variable — ownership lands in the
// outer scope the moment the gate admits the attempt — so the closure
// itself owes no Close. The outer function returns the handle to its
// caller as usual.
func okGateClosure(t *shard.Tree, gate func(func() error) error) (*shard.Scanner, error) {
	var sc *shard.Scanner
	err := gate(func() (err error) {
		sc, err = t.Scan(1, 2048)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// okGateClosureSession is the same shape behind the unified interface —
// a shed attempt leaves sess nil, an admitted one hands it out.
func okGateClosureSession(t *shard.Tree, gate func(func() error) error) (index.Session, error) {
	var sess index.Session
	err := gate(func() (err error) {
		sess, err = t.NewSession(16, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sess, nil
}

// leakLoaderOnAppendError returns on a rejected record without aborting,
// stranding every node the load allocated.
func leakLoaderOnAppendError(keys []uint64) (*btree.Tree, error) {
	l, err := btree.NewLoader(8) // want `open stream/handle "l" \(from NewLoader\) is not released`
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := l.Append(k); err != nil {
			return nil, err // leak: l still holds its nodes and frames
		}
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	return l.Tree(), nil
}

// okLoaderAbortOrClose aborts on the unwind and closes on success.
func okLoaderAbortOrClose(keys []uint64) (*btree.Tree, error) {
	l, err := btree.NewLoader(8)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if err := l.Append(k); err != nil {
			l.Abort()
			return nil, err
		}
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	return l.Tree(), nil
}

// okAnnotated documents a handoff the analysis cannot see.
func okAnnotated(reg map[string]*stream.Writer[int], path string) error {
	w, err := stream.OpenWriter[int](path) //emlint:owns: closed by the registry's shutdown sweep
	if err != nil {
		return err
	}
	reg[path] = w
	return nil
}
