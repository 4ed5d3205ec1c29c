// Package joins is the joinasync corpus: the leak shapes drop a dispatched
// batch's deadline (the caller returns while the model still has the batch
// in flight), and the ok shapes are the wait idioms the sweep must stay
// silent on.
package joins

import (
	"time"

	"pdm"
)

// leakOnErrorReturn dispatches a batch and forgets the wait on a later
// error unwind.
func leakOnErrorReturn(v *pdm.Volume, addrs []int64, dsts [][]byte) error {
	deadline, err := v.BatchReadAsync(addrs, dsts) // want `async batch deadline "deadline" \(from BatchReadAsync\) is not released`
	if err != nil {
		return err
	}
	if err := pdm.Prep(); err != nil {
		return err // leak: the dispatched read's model time is skipped
	}
	v.Wait(deadline)
	return nil
}

// leakNeverWaited dispatches and returns without ever waiting.
func leakNeverWaited(v *pdm.Volume, addrs []int64, srcs [][]byte) error {
	deadline, err := v.BatchWriteAsync(addrs, srcs) // want `async batch deadline "deadline" \(from BatchWriteAsync\) is not released`
	_ = deadline
	return err
}

// leakDiscardedUnderscore throws the deadline away by name.
func leakDiscardedUnderscore(v *pdm.Volume, addrs []int64, srcs [][]byte) error {
	_, err := v.BatchWriteAsync(addrs, srcs) // want `async batch deadline result of BatchWriteAsync is discarded`
	return err
}

// leakDiscardedBare drops the deadline without even binding it.
func leakDiscardedBare(v *pdm.Volume, addrs []int64, srcs [][]byte) {
	v.BatchWriteAsync(addrs, srcs) // want `async batch deadline result of BatchWriteAsync is discarded`
}

// okWaitedBothPaths waits before every return after a successful
// dispatch; a failed dispatch needs no wait.
func okWaitedBothPaths(v *pdm.Volume, addrs []int64, dsts [][]byte) error {
	deadline, err := v.BatchReadAsync(addrs, dsts)
	if err != nil {
		return err
	}
	v.Wait(deadline)
	return nil
}

// okWaitedOnUnwind overlaps compute with the batch and still waits on the
// error path.
func okWaitedOnUnwind(v *pdm.Volume, addrs []int64, dsts [][]byte) error {
	deadline, err := v.BatchReadAsync(addrs, dsts)
	if err != nil {
		return err
	}
	if err := pdm.Prep(); err != nil {
		v.Wait(deadline)
		return err
	}
	v.Wait(deadline)
	return nil
}

// okDeferredWait waits through a deferred call.
func okDeferredWait(v *pdm.Volume, addrs []int64, srcs [][]byte) error {
	deadline, err := v.BatchWriteAsync(addrs, srcs)
	if err != nil {
		return err
	}
	defer v.Wait(deadline)
	return pdm.Prep()
}

// okReturnedDeadline transfers the wait obligation to the caller.
func okReturnedDeadline(v *pdm.Volume, addrs []int64, srcs [][]byte) (time.Time, error) {
	deadline, err := v.BatchWriteAsync(addrs, srcs)
	return deadline, err
}

// okRetryLoopWaitsEachAttempt is the retry-under-faults shape: every
// successfully dispatched attempt is waited before the loop decides what
// to do next.
func okRetryLoopWaitsEachAttempt(v *pdm.Volume, addrs []int64, dsts [][]byte, tries int) error {
	var err error
	for i := 0; i < tries; i++ {
		deadline, derr := v.BatchReadAsync(addrs, dsts)
		if derr != nil {
			err = derr
			continue
		}
		v.Wait(deadline)
		if err = pdm.Prep(); err == nil {
			return nil
		}
	}
	return err
}

// leakRetryLoopSkipsWait re-enters the retry loop without waiting out the
// attempt it is abandoning.
func leakRetryLoopSkipsWait(v *pdm.Volume, addrs []int64, dsts [][]byte, tries int) error {
	for i := 0; i < tries; i++ {
		deadline, err := v.BatchReadAsync(addrs, dsts) // want `async batch deadline "deadline" \(from BatchReadAsync\) is not released`
		if err != nil {
			return err
		}
		if pdm.Prep() != nil {
			continue // leak: the dispatched batch is never waited
		}
		v.Wait(deadline)
		return nil
	}
	return nil
}

// okAnnotated documents a handoff the analysis cannot see.
func okAnnotated(v *pdm.Volume, due map[string]time.Time, addrs []int64, srcs [][]byte) error {
	deadline, err := v.BatchWriteAsync(addrs, srcs) //emlint:owns: waited by the flush loop via the due map
	due["batch"] = deadline
	return err
}
