package shard

import (
	"em/internal/index"
	"em/internal/record"
	"em/internal/stream"
)

// scanSeg is one shard's slice of a cross-shard scan. Tree scans open
// lazily (open is called when the scan reaches the shard); Store scans
// open eagerly at Scan time so every shard's snapshot is taken at the same
// moment, and park the scanner in src.
type scanSeg struct {
	shard int
	open  func() (index.Scanner, error)
	src   index.Scanner
}

// batchSource is a shard scanner that hands out a leaf's records at a
// time (btree.Scanner): an empty batch with a nil error ends it.
type batchSource interface {
	NextBatch(dst []record.Record) ([]record.Record, error)
}

// Scanner stitches per-shard scanners into one key-ordered stream. Range
// partitioning makes every key in shard i smaller than every key in shard
// i+1, so concatenation in shard order is the merge: no heap, no
// comparisons, each shard's scanner drained in turn with its own
// prefetched leaf reads in flight on its own disks. It implements
// stream.Source[record.Record].
//
// A shard scanner with NextBatch (a tree shard's) is drained a leaf at a
// time into one buffer reused across shards, so Next serves most records
// without a call into the shard; the stitched scan then holds one leaf of
// decoded records, at most one block of bytes, on the heap beside each
// open shard scanner's 2×Width pool frames. Any other source (a store
// shard's) is read one record at a time.
type Scanner struct {
	segs   []scanSeg
	cur    int
	src    index.Scanner   // segs[cur]'s scanner once the scan has reached it
	batch  batchSource     // src, when it has NextBatch
	buf    []record.Record // the current batch; buf[pos:] not yet returned
	pos    int
	err    error
	closed bool
}

// Next returns the next record in the range, crossing shard boundaries
// transparently. A shard's error is wrapped with its index and sticks.
func (sc *Scanner) Next() (record.Record, bool, error) {
	if sc.pos < len(sc.buf) {
		r := sc.buf[sc.pos]
		sc.pos++
		return r, true, nil
	}
	return sc.advance()
}

// advance is Next once the current batch is spent: it refills the batch,
// reads the next record of a per-record source, or moves to the next
// shard, opening a lazy shard's scanner and checking once whether it has
// NextBatch.
func (sc *Scanner) advance() (record.Record, bool, error) {
	var zero record.Record
	if sc.closed {
		return zero, false, stream.ErrClosed
	}
	if sc.err != nil {
		return zero, false, sc.err
	}
	for sc.cur < len(sc.segs) {
		sg := &sc.segs[sc.cur]
		if sc.src == nil {
			if sg.src == nil {
				src, err := sg.open()
				sg.open = nil
				if err != nil {
					return zero, false, sc.fail(sg.shard, err)
				}
				sg.src = src
			}
			sc.src = sg.src
			sc.batch, _ = sc.src.(batchSource)
		}
		if sc.batch != nil {
			buf, err := sc.batch.NextBatch(sc.buf)
			if err != nil {
				return zero, false, sc.fail(sg.shard, err)
			}
			if len(buf) > 0 {
				sc.buf, sc.pos = buf, 1
				return buf[0], true, nil
			}
		} else {
			r, ok, err := sc.src.Next()
			if err != nil {
				return zero, false, sc.fail(sg.shard, err)
			}
			if ok {
				return r, true, nil
			}
		}
		sc.src.Close()
		sg.src, sc.src, sc.batch = nil, nil, nil
		sc.cur++
	}
	return zero, false, nil
}

// fail wraps a shard's error with its index and makes it stick.
func (sc *Scanner) fail(shard int, err error) error {
	sc.err = wrapShard(shard, err)
	return sc.err
}

// Close releases every still-open per-shard scanner (and, for eager Store
// scans, their generation pins and session budgets). Idempotent.
func (sc *Scanner) Close() {
	if sc.closed {
		return
	}
	sc.closed = true
	sc.buf, sc.src, sc.batch = nil, nil, nil // Next reports ErrClosed mid-batch
	for i := range sc.segs {
		if sc.segs[i].src != nil {
			sc.segs[i].src.Close()
			sc.segs[i].src = nil
		}
		sc.segs[i].open = nil
	}
}
