package store

import (
	"math"
	"testing"

	"em/internal/index"
	"em/internal/pdm"
)

// FuzzStoreSchedule runs the schedule of store operations a byte string
// encodes (see runSchedule) against a map, on a memory-backed and a
// file-backed volume. Fronts are a few dozen operations over a key space
// of 512, so short inputs already build young generations, grow them over
// several fronts, and compact them. Every answer is checked as it
// arrives: point reads, batches, Session reads, and scans, some of which
// stay open across later writes and drains and must still deliver the
// snapshot they opened on. Before every step each front's filter must
// report every key the front holds, also once writes during a drain have
// taken the front past its filter's room. At the end Close must succeed
// and return every pool frame and every volume block the store allocated.
//
// `go test` replays the committed corpus under testdata/fuzz; `make fuzz`
// searches for new inputs.
func FuzzStoreSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, backend := range []string{"mem", "file"} {
			vc := testConfig()
			if backend == "file" {
				vc.Dir = t.TempDir()
			}
			runSchedule(t, backend, vc, script)
		}
	})
}

// The schedule's operations, the first byte of each modulo schedOps. The
// bytes that follow an opcode are its arguments; past the script's end
// every byte reads as zero.
const (
	schedInsert     = iota // key: Insert(key, step)
	schedDelete            // key: Delete(key)
	schedGet               // key: Get(key)
	schedRun               // key, n: n%64+1 Inserts from key up, Deletes if n is odd
	schedBatch             // who, n, n%16+1 keys: GetBatch, through a Session if who is odd and one is open
	schedScan              // lo, span, keep: Scan(lo, lo+2·span), or to the top at span 255; kept open if keep is odd
	schedSessOpen          // NewSession, while fewer than two are open
	schedSessGet           // which, key: Get through an open Session
	schedSessClose         // which: close an open Session
	schedStartDrain        // wait: StartDrain; if wait is odd, wait the drain out
	schedDrain             // Drain
	schedWait              // wait out the drain in flight
	schedOps
)

// schedKeys is the key space. A key is two bytes modulo it.
const schedKeys = 512

// script reads a schedule byte by byte.
type script []byte

func (s *script) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *script) key() uint64 { return (uint64(s.next())<<8 | uint64(s.next())) % schedKeys }

// pendingScan is a Scanner left open by the schedule, with the records it
// must deliver: the reference's range when it opened.
type pendingScan struct {
	sc   index.Scanner
	want [][2]uint64
}

// runSchedule runs one schedule on a fresh volume of shape vc. Its first
// byte picks the front size, 8 to 63 operations.
func runSchedule(t *testing.T, backend string, vc pdm.Config, b []byte) {
	t.Helper()
	vol := pdm.MustVolume(vc)
	defer vol.Close()
	pool := pdm.PoolFor(vol)
	live := vol.Allocated() - vol.FreeBlocks()
	in := script(b)
	cfg := storeConfig()
	cfg.FrontOps = 8 + int64(in.next())%56
	s, err := Open(vol, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[uint64]uint64{}
	var sessions []index.Session
	var pending *pendingScan
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s, step %d: "+format, append([]any{backend, step}, args...)...)
	}
	check := func(step int, what string, key, v uint64, ok bool, err error) {
		t.Helper()
		want, wok := ref[key]
		if err != nil || ok != wok || (ok && v != want) {
			fail(step, "%s(%d) = (%d, %v, %v), want (%d, %v)", what, key, v, ok, err, want, wok)
		}
	}
	finish := func(step int, p *pendingScan) {
		t.Helper()
		defer p.sc.Close()
		for i, w := range p.want {
			r, ok, err := p.sc.Next()
			if err != nil || !ok || r.Key != w[0] || r.Val != w[1] {
				fail(step, "scan record %d = (%d, %d, %v, %v), want (%d, %d)", i, r.Key, r.Val, ok, err, w[0], w[1])
			}
		}
		if r, ok, err := p.sc.Next(); ok || err != nil {
			fail(step, "scan after its %d records = (%d, %d, %v, %v)", len(p.want), r.Key, r.Val, ok, err)
		}
	}
	var youngFronts int64 // the most fronts a young generation held
	step := 0
	for ; len(in) > 0; step++ {
		s.mu.RLock()
		youngFronts = max(youngFronts, s.youngFronts)
		for _, o := range []*overlay{s.frontMem, s.sealedMem} {
			for _, op := range o.appendRange(nil, 0, math.MaxUint64) {
				if !o.filter.mayHold(op.Key) {
					s.mu.RUnlock()
					fail(step, "a front's filter rules out its key %d", op.Key)
				}
			}
		}
		s.mu.RUnlock()
		switch in.next() % schedOps {
		case schedInsert:
			k := in.key()
			if err := s.Insert(k, uint64(step)); err != nil {
				fail(step, "Insert: %v", err)
			}
			ref[k] = uint64(step)
		case schedDelete:
			k := in.key()
			if err := s.Delete(k); err != nil {
				fail(step, "Delete: %v", err)
			}
			delete(ref, k)
		case schedGet:
			k := in.key()
			v, ok, err := s.Get(k)
			check(step, "Get", k, v, ok, err)
		case schedRun:
			k, n := in.key(), in.next()
			for i := uint64(0); i <= uint64(n%64); i++ {
				if n&1 == 1 {
					err = s.Delete(k + i)
					delete(ref, k+i)
				} else {
					err = s.Insert(k+i, uint64(step))
					ref[k+i] = uint64(step)
				}
				if err != nil {
					fail(step, "run: %v", err)
				}
			}
		case schedBatch:
			who, n := in.next(), int(in.next()%16)+1
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = in.key()
			}
			getBatch, what := s.GetBatch, "GetBatch"
			if who&1 == 1 && len(sessions) > 0 {
				getBatch, what = sessions[int(who>>1)%len(sessions)].GetBatch, "Session.GetBatch"
			}
			vals, found, err := getBatch(keys)
			if err != nil {
				fail(step, "%s: %v", what, err)
			}
			for i, k := range keys {
				check(step, what, k, vals[i], found[i], nil)
			}
		case schedScan:
			lo, span, keep := in.key(), in.next(), in.next()
			hi := lo + 2*uint64(span)
			if span == 255 {
				hi = math.MaxUint64
			}
			if pending != nil {
				finish(step, pending)
				pending = nil
			}
			sc, err := s.Scan(lo, hi)
			if err != nil {
				fail(step, "Scan(%d, %d): %v", lo, hi, err)
			}
			p := &pendingScan{sc: sc}
			for k := lo; k < schedKeys+64 && k <= hi; k++ {
				if v, ok := ref[k]; ok {
					p.want = append(p.want, [2]uint64{k, v})
				}
			}
			if keep&1 == 1 {
				pending = p
			} else {
				finish(step, p)
			}
		case schedSessOpen:
			if len(sessions) < 2 {
				ss, err := s.NewSession(0, 0)
				if err != nil {
					fail(step, "NewSession: %v", err)
				}
				sessions = append(sessions, ss)
			}
		case schedSessGet:
			which, k := in.next(), in.key()
			if len(sessions) > 0 {
				v, ok, err := sessions[int(which)%len(sessions)].Get(k)
				check(step, "Session.Get", k, v, ok, err)
			}
		case schedSessClose:
			if which := in.next(); len(sessions) > 0 {
				i := int(which) % len(sessions)
				if err := sessions[i].Close(); err != nil {
					fail(step, "Session.Close: %v", err)
				}
				sessions = append(sessions[:i], sessions[i+1:]...)
			}
		case schedStartDrain:
			idle, wait := !s.Draining(), in.next()&1 == 1
			if s.StartDrain() && wait {
				if err := waitDrain(s); err != nil {
					fail(step, "drain: %v", err)
				}
				// A drain StartDrain starts compacts, and nothing sealed a
				// front behind it.
				if idle && generations(s) != 1 {
					fail(step, "StartDrain's drain left %d generations", generations(s))
				}
			}
		case schedDrain:
			if err := s.Drain(); err != nil {
				fail(step, "Drain: %v", err)
			}
			if g := generations(s); g != 1 {
				fail(step, "Drain left %d generations", g)
			}
		case schedWait:
			if err := waitDrain(s); err != nil {
				fail(step, "drain: %v", err)
			}
		}
	}
	if pending != nil {
		finish(-1, pending)
	}
	for _, ss := range sessions {
		if err := ss.Close(); err != nil {
			fail(-1, "Session.Close: %v", err)
		}
	}
	got := scanAll(t, s)
	if len(got) != len(ref) {
		fail(-1, "the final scan holds %d keys, want %d", len(got), len(ref))
	}
	for k, v := range ref {
		if w, ok := got[k]; !ok || w != v {
			fail(-1, "the final scan has key %d = (%d, %v), want %d", k, w, ok, v)
		}
	}
	t.Logf("%s: %d steps, %d drains, young up to %d fronts", backend, step, s.Drains(), youngFronts)
	if err := s.Close(); err != nil {
		fail(-1, "Close: %v", err)
	}
	if got := pool.Free(); got != pool.Capacity() {
		fail(-1, "Close kept %d of %d frames", pool.Capacity()-got, pool.Capacity())
	}
	if got := vol.Allocated() - vol.FreeBlocks(); got != live {
		fail(-1, "Close left %d live blocks, %d at the start", got, live)
	}
}
