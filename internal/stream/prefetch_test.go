package stream

import (
	"testing"
	"testing/quick"
	"time"

	"em/internal/pdm"
	"em/internal/record"
)

func asyncTestVol(latency time.Duration) (*pdm.Volume, *pdm.Pool) {
	v := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 32, Disks: 4, DiskLatency: latency})
	return v, pdm.PoolFor(v)
}

func genRecords(n int) []record.Record {
	vs := make([]record.Record, n)
	for i := range vs {
		vs[i] = record.Record{Key: uint64(i*2654435761) % 1009, Val: uint64(i)}
	}
	return vs
}

// TestPrefetchReaderMatchesReader checks that a prefetching scan returns the
// same records as a synchronous scan and charges identical I/O counts.
func TestPrefetchReaderMatchesReader(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 17, 64, 257} {
		for _, width := range []int{1, 2, 4} {
			vol, pool := asyncTestVol(0)
			vs := genRecords(n)
			f, err := FromSlice(vol, pool, record.RecordCodec{}, vs)
			if err != nil {
				t.Fatal(err)
			}
			vol.Stats().Reset()
			sr, err := NewStripedReader(f, pool, width)
			if err != nil {
				t.Fatal(err)
			}
			var syncOut []record.Record
			for {
				v, ok, err := sr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				syncOut = append(syncOut, v)
			}
			sr.Close()
			syncStats := vol.Stats().Snapshot()

			vol.Stats().Reset()
			pr, err := NewPrefetchReader(f, pool, width)
			if err != nil {
				t.Fatal(err)
			}
			var asyncOut []record.Record
			for {
				v, ok, err := pr.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				asyncOut = append(asyncOut, v)
			}
			pr.Close()
			asyncStats := vol.Stats().Snapshot()

			if len(syncOut) != len(asyncOut) {
				t.Fatalf("n=%d w=%d: lengths %d vs %d", n, width, len(syncOut), len(asyncOut))
			}
			for i := range syncOut {
				if syncOut[i] != asyncOut[i] {
					t.Fatalf("n=%d w=%d: record %d differs", n, width, i)
				}
			}
			if syncStats.Reads != asyncStats.Reads || syncStats.Steps != asyncStats.Steps {
				t.Fatalf("n=%d w=%d: stats differ: sync reads=%d steps=%d, async reads=%d steps=%d",
					n, width, syncStats.Reads, syncStats.Steps, asyncStats.Reads, asyncStats.Steps)
			}
			if pool.InUse() != 0 {
				t.Fatalf("n=%d w=%d: leaked %d frames", n, width, pool.InUse())
			}
		}
	}
}

// TestAsyncWriterMatchesWriter checks that write-behind produces a
// byte-identical file (same records, same block layout) at identical I/O
// cost.
func TestAsyncWriterMatchesWriter(t *testing.T) {
	for _, n := range []int{0, 1, 4, 15, 16, 63, 200} {
		for _, width := range []int{1, 2, 4} {
			vs := genRecords(n)

			svol, spool := asyncTestVol(0)
			sf := NewFile[record.Record](svol, record.RecordCodec{})
			sw, err := NewStripedWriter(sf, spool, width)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				if err := sw.Append(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}

			avol, apool := asyncTestVol(0)
			af := NewFile[record.Record](avol, record.RecordCodec{})
			aw, err := NewAsyncWriter(af, apool, width)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				if err := aw.Append(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := aw.Close(); err != nil {
				t.Fatal(err)
			}

			ss, as := svol.Stats().Snapshot(), avol.Stats().Snapshot()
			if ss.Writes != as.Writes || ss.Steps != as.Steps {
				t.Fatalf("n=%d w=%d: writes %d/%d steps %d/%d", n, width, ss.Writes, as.Writes, ss.Steps, as.Steps)
			}
			sb, ab := BlockAddrs(sf), BlockAddrs(af)
			if len(sb) != len(ab) {
				t.Fatalf("n=%d w=%d: block counts %d vs %d", n, width, len(sb), len(ab))
			}
			for i := range sb {
				if sb[i] != ab[i] {
					t.Fatalf("n=%d w=%d: block %d at addr %d vs %d", n, width, i, sb[i], ab[i])
				}
			}
			got, err := ToSlice(af, apool)
			if err != nil {
				t.Fatal(err)
			}
			for i := range vs {
				if got[i] != vs[i] {
					t.Fatalf("n=%d w=%d: record %d differs", n, width, i)
				}
			}
			if apool.InUse() != 0 {
				t.Fatalf("n=%d w=%d: leaked %d frames", n, width, apool.InUse())
			}
		}
	}
}

// TestAsyncRoundTripQuick is the quick-check property: for arbitrary record
// payloads, an async write followed by an async read returns exactly the
// input, with the same block counts a synchronous round trip charges, on a
// latency volume, where every wait sleeps out a reservation.
func TestAsyncRoundTripQuick(t *testing.T) {
	f := func(keys []uint64) bool {
		if len(keys) > 512 {
			keys = keys[:512]
		}
		vs := make([]record.Record, len(keys))
		for i, k := range keys {
			vs[i] = record.Record{Key: k, Val: uint64(i)}
		}

		// Synchronous reference.
		svol, spool := asyncTestVol(0)
		sf, err := FromSlice(svol, spool, record.RecordCodec{}, vs)
		if err != nil {
			return false
		}
		sback, err := ToSlice(sf, spool)
		if err != nil {
			return false
		}
		sstats := svol.Stats().Snapshot()

		// Async path on a latency volume.
		avol, apool := asyncTestVol(5 * time.Microsecond)
		defer avol.Close()
		af := NewFile[record.Record](avol, record.RecordCodec{})
		aw, err := NewAsyncWriter(af, apool, 1)
		if err != nil {
			return false
		}
		for _, v := range vs {
			if err := aw.Append(v); err != nil {
				return false
			}
		}
		if err := aw.Close(); err != nil {
			return false
		}
		var aback []record.Record
		if err := AsyncForEach(af, apool, 1, func(v record.Record) error {
			aback = append(aback, v)
			return nil
		}); err != nil {
			return false
		}
		astats := avol.Stats().Snapshot()

		if len(sback) != len(aback) || len(sback) != len(vs) {
			return false
		}
		for i := range sback {
			if sback[i] != aback[i] || sback[i] != vs[i] {
				return false
			}
		}
		return sstats.Reads == astats.Reads && sstats.Writes == astats.Writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncWriterAppendToPartialTail checks the reload-partial-block path
// matches the synchronous writer.
func TestAsyncWriterAppendToPartialTail(t *testing.T) {
	vol, pool := asyncTestVol(0)
	vs := genRecords(10) // 64-byte blocks, 16-byte records: 2.5 blocks
	f, err := FromSlice(vol, pool, record.RecordCodec{}, vs[:10])
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewAsyncWriter(f, pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	extra := genRecords(7)
	for _, v := range extra {
		if err := w.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ToSlice(f, pool)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]record.Record{}, vs[:10]...), extra...)
	if len(got) != len(want) {
		t.Fatalf("len %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}
