// Package poolframes is the poolbalance corpus: every known-bad shape is a
// leak class fixed by hand in this repository's history (PR 2 fixed
// partition leaking frames when a mid-loop Close failed; PR 2's review
// hardened MergeSort and copyFile error paths the same way), and every
// known-good shape is an idiom the sweep must stay silent on.
package poolframes

import "pdm"

// leakOnErrorReturn is the classic unwind bug: the frame is held, a later
// step fails, and the error return forgets it (the PR 2 partition class).
func leakOnErrorReturn(p *pdm.Pool) error {
	f, err := p.Alloc() // want `pool frame "f" \(from Alloc\) is not released on every path`
	if err != nil {
		return err
	}
	if err := pdm.Process(f.Buf); err != nil {
		return err // leak: f still held
	}
	f.Release()
	return nil
}

// leakNeverReleased never releases at all.
func leakNeverReleased(p *pdm.Pool) {
	f := p.MustAlloc() // want `pool frame "f" \(from MustAlloc\) is not released`
	_ = f.Buf
}

// leakBatchOnError loses a whole AllocN batch on the error path.
func leakBatchOnError(p *pdm.Pool) error {
	frames, err := p.AllocN(4) // want `pool frame "frames" \(from AllocN\) is not released`
	if err != nil {
		return err
	}
	for _, f := range frames {
		if err := pdm.Process(f.Buf); err != nil {
			return err // leak: the batch is still held
		}
	}
	pdm.ReleaseAll(frames)
	return nil
}

// leakDiscarded drops the frame on the floor outright.
func leakDiscarded(p *pdm.Pool) {
	_ = p.MustAlloc() // want `pool frame result of MustAlloc is discarded`
}

// okErrorCheckedThenReleased is the canonical correct shape.
func okErrorCheckedThenReleased(p *pdm.Pool) error {
	f, err := p.Alloc()
	if err != nil {
		return err
	}
	if err := pdm.Process(f.Buf); err != nil {
		f.Release()
		return err
	}
	f.Release()
	return nil
}

// okDeferred releases through a defer, covering every path.
func okDeferred(p *pdm.Pool) error {
	f, err := p.Alloc()
	if err != nil {
		return err
	}
	defer f.Release()
	return pdm.Process(f.Buf)
}

// okDeferredClosure releases inside a deferred closure.
func okDeferredClosure(p *pdm.Pool) error {
	f, err := p.Alloc()
	if err != nil {
		return err
	}
	defer func() { f.Release() }()
	return pdm.Process(f.Buf)
}

// okBatchRangeRelease releases a batch with the range idiom on the unwind.
func okBatchRangeRelease(p *pdm.Pool) error {
	frames, err := p.AllocN(4)
	if err != nil {
		return err
	}
	for _, f := range frames {
		if err := pdm.Process(f.Buf); err != nil {
			for _, g := range frames {
				g.Release()
			}
			return err
		}
	}
	pdm.ReleaseAll(frames)
	return nil
}

// okReturned transfers ownership to the caller.
func okReturned(p *pdm.Pool) (*pdm.Frame, error) {
	f, err := p.Alloc()
	if err != nil {
		return nil, err
	}
	return f, nil
}

// okEscapesIntoSink hands the frame to a consumer that owns it.
func okEscapesIntoSink(p *pdm.Pool, s *pdm.Sink) error {
	f, err := p.Alloc()
	if err != nil {
		return err
	}
	return s.Consume(f)
}

// okStoredInStruct parks the frame in a struct that owns it.
type holder struct {
	f *pdm.Frame
}

func okStoredInStruct(p *pdm.Pool, h *holder) error {
	f, err := p.Alloc()
	if err != nil {
		return err
	}
	h.f = f
	return nil
}

// okAppendedToOwnedSlice escapes into a slice the caller manages.
func okAppendedToOwnedSlice(p *pdm.Pool, frames []*pdm.Frame) ([]*pdm.Frame, error) {
	f, err := p.Alloc()
	if err != nil {
		return frames, err
	}
	frames = append(frames, f)
	return frames, nil
}

// okAnnotated documents a handoff the analysis cannot see.
func okAnnotated(p *pdm.Pool, ch chan<- *pdm.Frame) error {
	f, err := p.Alloc() //emlint:owns: handed to the drain goroutine via ch
	if err != nil {
		return err
	}
	select {
	case ch <- f:
	default:
		f.Release()
	}
	return nil
}

// okLoopBodyRelease acquires and releases each iteration.
func okLoopBodyRelease(p *pdm.Pool, n int) error {
	for i := 0; i < n; i++ {
		f, err := p.Alloc()
		if err != nil {
			return err
		}
		if err := pdm.Process(f.Buf); err != nil {
			f.Release()
			return err
		}
		f.Release()
	}
	return nil
}

// leakBreakBeforeRelease leaks when the loop breaks before the release.
func leakBreakBeforeRelease(p *pdm.Pool, n int) error {
	for i := 0; i < n; i++ {
		f, err := p.Alloc() // want `pool frame "f" \(from Alloc\) is not released`
		if err != nil {
			return err
		}
		if i == n-1 {
			break // leak: f held past the loop
		}
		f.Release()
	}
	return nil
}

// okSwitchAllPaths releases in every switch arm.
func okSwitchAllPaths(p *pdm.Pool, mode int) error {
	f, err := p.Alloc()
	if err != nil {
		return err
	}
	switch mode {
	case 0:
		f.Release()
	case 1:
		defer f.Release()
	default:
		f.Release()
	}
	return nil
}

// leakMissedSwitchArm forgets one arm (caught because switch joins merge).
func leakMissedSwitchArm(p *pdm.Pool, mode int) error {
	f, err := p.Alloc() // want `pool frame "f" \(from Alloc\) is not released`
	if err != nil {
		return err
	}
	switch mode {
	case 0:
		f.Release()
	case 1:
		// leak: falls out of the switch still holding f
	}
	return nil
}

// okAdmissionShedReleases is the admission-queue discipline: a queued
// request holding reservations that gets shed on overload returns every
// frame it held before surfacing the typed error — a shed that kept its
// frames would convert backpressure into a permanent budget leak.
func okAdmissionShedReleases(p *pdm.Pool, tries int) error {
	frames, err := p.AllocN(2)
	if err != nil {
		return err
	}
	for i := 0; i < tries; i++ {
		if err := pdm.Process(frames[0].Buf); err == nil {
			pdm.ReleaseAll(frames)
			return nil
		}
	}
	pdm.ReleaseAll(frames) // shed: the queued reservations come back
	return pdm.ErrNoFrames
}

// leakAdmissionShed sheds without releasing the queued reservations.
func leakAdmissionShed(p *pdm.Pool, tries int) error {
	frames, err := p.AllocN(2) // want `pool frame "frames" \(from AllocN\) is not released`
	if err != nil {
		return err
	}
	for i := 0; i < tries; i++ {
		if err := pdm.Process(frames[0].Buf); err == nil {
			pdm.ReleaseAll(frames)
			return nil
		}
	}
	return pdm.ErrNoFrames // leak: shed while still holding the frames
}

// okGoroutineHandoff escapes into a goroutine that owns it.
func okGoroutineHandoff(p *pdm.Pool) error {
	f, err := p.Alloc()
	if err != nil {
		return err
	}
	go func() {
		defer f.Release()
		_ = pdm.Process(f.Buf)
	}()
	return nil
}

// leakCarveOnErrorUnwind holds a carved pool across a step that fails, and
// the error return forgets it: the carved frames stay out of p for good.
func leakCarveOnErrorUnwind(p *pdm.Pool, buf []byte) error {
	sub, err := p.Carve(4) // want `pool frame "sub" \(from Carve\) is not released`
	if err != nil {
		return err
	}
	if err := pdm.Process(buf); err != nil {
		return err // leak: sub is never closed
	}
	sub.Close()
	return nil
}

// okCarveStoredInStruct parks a carved pool in a struct that closes it
// later (the store's drain budget).
type budget struct {
	pool *pdm.Pool
}

func okCarveStoredInStruct(p *pdm.Pool, b *budget) error {
	sub, err := p.Carve(4)
	if err != nil {
		return err
	}
	b.pool = sub
	return nil
}

// okCarveDeferredClose closes a carve by defer, and frames drawn from it
// are released on every path as any pool's are.
func okCarveDeferredClose(p *pdm.Pool) error {
	sub, err := p.Carve(4)
	if err != nil {
		return err
	}
	defer sub.Close()
	f, err := sub.Alloc()
	if err != nil {
		return err
	}
	defer f.Release()
	return pdm.Process(f.Buf)
}

// okCarveClosedOnUnwind closes the carve on the error return and at the
// end: Close is the carve's release.
func okCarveClosedOnUnwind(p *pdm.Pool, buf []byte) error {
	sub, err := p.Carve(4)
	if err != nil {
		return err
	}
	if err := pdm.Process(buf); err != nil {
		sub.Close()
		return err
	}
	sub.Close()
	return nil
}
