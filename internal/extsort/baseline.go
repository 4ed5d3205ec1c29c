package extsort

import (
	"em/internal/btree"
	"em/internal/pdm"
	"em/internal/record"
	"em/internal/stream"
)

// SortViaBTree is the survey's strawman: sort by inserting every record into
// a B-tree and then scanning the leaves. It costs Θ(N·log_B N) I/Os — worse
// than Sort(N) by roughly a factor of B/log(M/B), the gap experiment T2
// measures. Records must have distinct keys (values disambiguate ties by
// packing, so callers should pre-mix duplicates if needed).
//
// cacheFrames bounds the B-tree buffer manager (zero means 8); the
// remaining pool frames serve the input and output streams. The tree is
// scaffolding: it is released, not flushed, on every path, and on error the
// partial output goes too, so the pool and the volume are left as found.
func SortViaBTree(f *stream.File[record.Record], pool *pdm.Pool, cacheFrames int) (*stream.File[record.Record], error) {
	t, err := btree.New(f.Vol(), pool, &btree.Options{CacheFrames: cacheFrames})
	if err != nil {
		return nil, err
	}
	out := stream.NewFile[record.Record](f.Vol(), f.Codec())
	err = stream.ForEach(f, pool, func(r record.Record) error {
		_, err := t.Insert(r.Key, r.Val)
		return err
	})
	if err == nil {
		var w *stream.Writer[record.Record]
		if w, err = stream.NewWriter(out, pool); err == nil {
			err = t.Range(0, ^uint64(0), func(k, v uint64) error {
				return w.Append(record.Record{Key: k, Val: v})
			})
			if cerr := w.Close(); err == nil {
				err = cerr
			}
		}
	}
	if rerr := t.Release(); err == nil {
		err = rerr
	}
	if err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}
