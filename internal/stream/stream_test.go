package stream

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"em/internal/pdm"
	"em/internal/record"
)

func newEnv(t *testing.T, memBlocks, disks int) (*pdm.Volume, *pdm.Pool) {
	t.Helper()
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: memBlocks, Disks: disks})
	return vol, pdm.PoolFor(vol)
}

func recs(n int) []record.Record {
	rng := rand.New(rand.NewSource(42))
	out := make([]record.Record, n)
	for i := range out {
		out[i] = record.Record{Key: rng.Uint64(), Val: uint64(i)}
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 64, 257} {
		vol, pool := newEnv(t, 8, 1)
		in := recs(n)
		f, err := FromSlice(vol, pool, record.RecordCodec{}, in)
		if err != nil {
			t.Fatal(err)
		}
		if f.Len() != int64(n) {
			t.Fatalf("n=%d: Len=%d", n, f.Len())
		}
		out, err := ToSlice(f, pool)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: got %d records back", n, len(out))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("n=%d: record %d mismatch", n, i)
			}
		}
		if pool.InUse() != 0 {
			t.Fatalf("n=%d: leaked %d frames", n, pool.InUse())
		}
	}
}

func TestPerBlock(t *testing.T) {
	vol, _ := newEnv(t, 8, 1)
	f := NewFile[record.Record](vol, record.RecordCodec{})
	if got := f.PerBlock(); got != 4 { // 64-byte blocks / 16-byte records
		t.Fatalf("PerBlock = %d, want 4", got)
	}
}

func TestScanIOCount(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	n := 100 // 25 blocks at 4 records per block
	f, err := FromSlice(vol, pool, record.RecordCodec{}, recs(n))
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks() != 25 {
		t.Fatalf("blocks = %d, want 25", f.Blocks())
	}
	vol.Stats().Reset()
	if _, err := ToSlice(f, pool); err != nil {
		t.Fatal(err)
	}
	if got := vol.Stats().Reads; got != 25 {
		t.Fatalf("scan of 25 blocks cost %d reads", got)
	}
	if vol.Stats().Writes != 0 {
		t.Fatal("scan should not write")
	}
}

func TestStripedWriterParallelSteps(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 16, Disks: 4})
	pool := pdm.PoolFor(vol)
	f := NewFile[record.Record](vol, record.RecordCodec{})
	w, err := NewStripedWriter(f, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs(64) { // 16 blocks = 4 striped batches
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s := vol.Stats()
	if s.Writes != 16 {
		t.Fatalf("writes = %d, want 16", s.Writes)
	}
	if s.Steps != 4 {
		t.Fatalf("steps = %d, want 4 (width-4 striping on 4 disks)", s.Steps)
	}
	// Striped read back.
	s.Reset()
	r, err := NewStripedReader(f, pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	count := 0
	for {
		_, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 64 {
		t.Fatalf("read %d records", count)
	}
	if s.Steps != 4 {
		t.Fatalf("read steps = %d, want 4", s.Steps)
	}
}

func TestClosedReaderWriter(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	f, err := FromSlice(vol, pool, record.RecordCodec{}, recs(4))
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(f, pool)
	r.Close()
	r.Close() // idempotent
	if _, _, err := r.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("next after close: %v", err)
	}
	w, _ := NewWriter(f, pool)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(record.Record{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestRandomAccess(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	in := recs(30)
	f, err := FromSlice(vol, pool, record.RecordCodec{}, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecordAt(f, pool, 17)
	if err != nil {
		t.Fatal(err)
	}
	if got != in[17] {
		t.Fatal("ReadRecordAt mismatch")
	}
	repl := record.Record{Key: 999, Val: 999}
	if err := WriteRecordAt(f, pool, 17, repl); err != nil {
		t.Fatal(err)
	}
	got, err = ReadRecordAt(f, pool, 17)
	if err != nil {
		t.Fatal(err)
	}
	if got != repl {
		t.Fatal("WriteRecordAt did not stick")
	}
	// Neighbours untouched.
	for _, i := range []int64{16, 18} {
		g, err := ReadRecordAt(f, pool, i)
		if err != nil {
			t.Fatal(err)
		}
		if g != in[i] {
			t.Fatalf("neighbour %d corrupted", i)
		}
	}
	if _, err := ReadRecordAt(f, pool, 30); err == nil {
		t.Fatal("out-of-range read should fail")
	}
	if err := WriteRecordAt(f, pool, -1, repl); err == nil {
		t.Fatal("out-of-range write should fail")
	}
}

func TestRandomAccessIOCost(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	f, err := FromSlice(vol, pool, record.RecordCodec{}, recs(40))
	if err != nil {
		t.Fatal(err)
	}
	vol.Stats().Reset()
	if _, err := ReadRecordAt(f, pool, 5); err != nil {
		t.Fatal(err)
	}
	if vol.Stats().Total() != 1 {
		t.Fatalf("random read cost %d I/Os, want 1", vol.Stats().Total())
	}
	vol.Stats().Reset()
	if err := WriteRecordAt(f, pool, 5, record.Record{}); err != nil {
		t.Fatal(err)
	}
	if vol.Stats().Reads != 1 || vol.Stats().Writes != 1 {
		t.Fatalf("random write cost %v, want 1 read + 1 write", vol.Stats())
	}
}

func TestFileRelease(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	f, err := FromSlice(vol, pool, record.RecordCodec{}, recs(8))
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks() == 0 {
		t.Fatal("expected blocks")
	}
	before := vol.Allocated()
	f.Release()
	if f.Len() != 0 || f.Blocks() != 0 {
		t.Fatal("release did not empty file")
	}
	// Freed blocks are reused by subsequent single-block allocations.
	if vol.Alloc(1) >= before {
		t.Fatal("freed block not reused")
	}
}

func TestWidthValidation(t *testing.T) {
	vol, pool := newEnv(t, 8, 1)
	f := NewFile[record.Record](vol, record.RecordCodec{})
	if _, err := NewStripedWriter(f, pool, 0); err == nil {
		t.Fatal("width 0 writer should fail")
	}
	if _, err := NewStripedReader(f, pool, -1); err == nil {
		t.Fatal("negative width reader should fail")
	}
}

func TestWriterRespectsPoolBudget(t *testing.T) {
	vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 2, Disks: 1})
	pool := pdm.PoolFor(vol)
	f := NewFile[record.Record](vol, record.RecordCodec{})
	if _, err := NewStripedWriter(f, pool, 3); !errors.Is(err, pdm.ErrNoFrames) {
		t.Fatalf("3-frame writer on 2-frame pool: %v", err)
	}
	if pool.InUse() != 0 {
		t.Fatal("failed construction leaked frames")
	}
}

// Property: FromSlice then ToSlice is the identity on arbitrary uint64 data.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) > 500 {
			vals = vals[:500]
		}
		vol := pdm.MustVolume(pdm.Config{BlockBytes: 64, MemBlocks: 8, Disks: 2})
		pool := pdm.PoolFor(vol)
		file, err := FromSlice(vol, pool, record.U64Codec{}, vals)
		if err != nil {
			return false
		}
		out, err := ToSlice(file, pool)
		if err != nil {
			return false
		}
		if len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
