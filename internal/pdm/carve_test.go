package pdm

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// warmPool returns a pool of capacity frames whose every buffer has been
// made and returned, and the set of those buffers.
func warmPool(t *testing.T, capacity int) (*Pool, map[*Frame]bool) {
	t.Helper()
	p := NewPool(64, capacity)
	frames, err := p.AllocN(capacity)
	if err != nil {
		t.Fatal(err)
	}
	made := make(map[*Frame]bool, capacity)
	for _, f := range frames {
		made[f] = true
	}
	ReleaseAll(frames)
	return p, made
}

// A carved pool hands out exactly the frames it took from its parent, and
// its parent's other frames are not among them.
func TestCarveHandsOutItsFrames(t *testing.T) {
	p, made := warmPool(t, 8)
	c, err := p.Carve(5)
	if err != nil {
		t.Fatal(err)
	}
	carved := make(map[*Frame]bool)
	for _, f := range c.free {
		carved[f] = true
	}
	if len(carved) != 5 || c.Capacity() != 5 || p.Free() != 3 {
		t.Fatalf("carve of 5: %d distinct frames, capacity %d, parent free %d", len(carved), c.Capacity(), p.Free())
	}
	for f := range carved {
		if !made[f] {
			t.Fatal("a carved frame is not one of the parent's buffers")
		}
	}
	// Churn: every frame the carve lends, first round or recycled, is one of
	// the five it took.
	var held []*Frame
	for round := 0; round < 3; round++ {
		for len(held) < 5 {
			f, err := c.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if !carved[f] {
				t.Fatalf("round %d: the carve lent a frame it did not take", round)
			}
			held = append(held, f)
		}
		if _, err := c.Alloc(); !errors.Is(err, ErrNoFrames) {
			t.Fatalf("sixth alloc from a carve of 5: %v", err)
		}
		held[1].Release()
		held[3].Release()
		held = append(held[:1], held[2], held[4])
	}
	rest, err := p.AllocN(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rest {
		if carved[f] {
			t.Fatal("the parent lent a frame it had carved away")
		}
	}
	ReleaseAll(rest)
	ReleaseAll(held)
	c.Close()
	if p.Free() != 8 || len(p.free) != 8 {
		t.Fatalf("after Close the parent has %d free, %d buffers on hand", p.Free(), len(p.free))
	}
}

// A carve larger than the parent has free fails and changes nothing: not
// the count, not the peak, not which buffers the parent holds.
func TestCarveTooLargeLeavesParent(t *testing.T) {
	p, _ := warmPool(t, 6)
	p.peak = 0 // so a carve that counted its frames before failing would show
	held := p.MustAlloc()
	free := slices.Clone(p.free)
	if _, err := p.Carve(p.Free() + 1); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("carve beyond Free: %v", err)
	}
	if p.InUse() != 1 || p.Free() != 5 || p.Peak() != 1 || !slices.Equal(p.free, free) {
		t.Fatalf("failed carve moved the parent: inUse %d, free %d, peak %d", p.InUse(), p.Free(), p.Peak())
	}
	held.Release()
	c, err := p.Carve(p.Free())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// A drain's budget carved from the store's pool, and a session carved from
// the drain's: closing both, in either order, restores both levels.
func TestCarveNested(t *testing.T) {
	for _, sessionFirst := range []bool{true, false} {
		p, made := warmPool(t, 16)
		drain, err := p.Carve(10)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := drain.Carve(4)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := sess.AllocN(4)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if !made[f] {
				t.Fatal("a nested carve lent a frame of its own")
			}
		}
		if p.Free() != 6 || drain.Free() != 6 || sess.Free() != 0 {
			t.Fatalf("free: parent %d, drain %d, session %d", p.Free(), drain.Free(), sess.Free())
		}
		if _, err := drain.Carve(7); !errors.Is(err, ErrNoFrames) {
			t.Fatalf("carve beyond the drain's free frames: %v", err)
		}
		ReleaseAll(frames)
		if sessionFirst {
			sess.Close()
			if drain.Free() != 10 || p.Free() != 6 {
				t.Fatalf("session closed: drain free %d, parent free %d", drain.Free(), p.Free())
			}
			drain.Close()
		} else {
			drain.Close()
			if p.Free() != 12 {
				t.Fatalf("drain closed under an open session: parent free %d, want 12", p.Free())
			}
			sess.Close()
		}
		if p.Free() != 16 || len(p.free) != 16 {
			t.Fatalf("sessionFirst=%v: parent free %d, %d buffers on hand", sessionFirst, p.Free(), len(p.free))
		}
	}
}

// A frame still on loan when its carved pool closes — a scanner that
// outlives its session — goes back to the parent when it is released,
// through every closed level.
func TestCarveReleaseAfterClose(t *testing.T) {
	p, _ := warmPool(t, 8)
	start := p.Free()
	c, err := p.Carve(3)
	if err != nil {
		t.Fatal(err)
	}
	f := c.MustAlloc()
	c.Close()
	if p.Free() != start-1 {
		t.Fatalf("closed carve with one frame out: parent free %d, want %d", p.Free(), start-1)
	}
	if _, err := c.Alloc(); !errors.Is(err, ErrNoFrames) {
		t.Fatalf("alloc from a closed carve: %v", err)
	}
	f.Release()
	if p.Free() != start {
		t.Fatalf("late release: parent free %d, want %d", p.Free(), start)
	}

	drain, err := p.Carve(6)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := drain.Carve(2)
	if err != nil {
		t.Fatal(err)
	}
	g := sess.MustAlloc()
	sess.Close()
	drain.Close()
	if p.Free() != start-1 {
		t.Fatalf("two closed levels with one frame out: parent free %d, want %d", p.Free(), start-1)
	}
	g.Release()
	if p.Free() != start || len(p.free) != start {
		t.Fatalf("late release through two levels: parent free %d, %d buffers on hand", p.Free(), len(p.free))
	}
}

// Releases racing a carve's Close each land exactly once, in the carve or
// in its parent (run under -race).
func TestCarveCloseRacesRelease(t *testing.T) {
	p, _ := warmPool(t, 8)
	c, err := p.Carve(6)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := c.AllocN(6)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, f := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Release()
		}()
	}
	c.Close()
	wg.Wait()
	if p.Free() != 8 || len(p.free) != 8 {
		t.Fatalf("parent free %d, %d buffers on hand", p.Free(), len(p.free))
	}
}
