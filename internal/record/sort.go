package record

import "math/bits"

// radixCutoff is the longest run Sort finishes by insertion sort rather
// than by another radix pass.
const radixCutoff = 48

// Sort sorts rs in place by Less, allocating nothing: an MSD radix
// (American-flag) sort over the sixteen bytes of Key then Val, most
// significant first. It is not stable, and need not be: Less is a total
// order, so records it ties are equal in bytes and every sorted order of rs
// is the same byte sequence. Already-sorted input costs one pass.
func Sort(rs []Record) {
	for i := 1; i < len(rs); i++ {
		if rs[i].Less(rs[i-1]) {
			radixSort(rs, 0)
			return
		}
	}
}

// digit returns byte d of r's sort key, Key's eight bytes then Val's, most
// significant first.
func digit(r Record, d int) int {
	if d < 8 {
		return int(r.Key >> (56 - 8*d) & 0xff)
	}
	return int(r.Val >> (120 - 8*d) & 0xff)
}

// radixSort sorts rs, whose records agree on every byte before d, by bytes
// d onward. Each call permutes rs in place into one bucket per value of
// byte d (every record moves at most once, along a cycle) and recurses
// into the buckets, so the recursion is at most sixteen deep and its only
// memory is two 256-entry offset tables per level.
func radixSort(rs []Record, d int) {
	for {
		if len(rs) <= radixCutoff {
			insertionSort(rs)
			return
		}
		var head, tail [256]int
		for _, r := range rs {
			tail[digit(r, d)]++
		}
		if tail[digit(rs[0], d)] == len(rs) {
			// Byte d is the same everywhere: jump to the first byte on
			// which any two records differ, if there is one.
			var dk, dv uint64
			for _, r := range rs {
				dk |= r.Key ^ rs[0].Key
				dv |= r.Val ^ rs[0].Val
			}
			switch {
			case dk != 0:
				d = bits.LeadingZeros64(dk) / 8
			case dv != 0:
				d = 8 + bits.LeadingZeros64(dv)/8
			default:
				return
			}
			continue
		}
		n := 0
		for b, c := range tail {
			head[b] = n
			n += c
			tail[b] = n
		}
		// Fill bucket b from its head: the record found there is swapped
		// into its own bucket's head until one that belongs in b turns up.
		for b := range head {
			for head[b] < tail[b] {
				v := rs[head[b]]
				for db := digit(v, d); db != b; db = digit(v, d) {
					v, rs[head[db]] = rs[head[db]], v
					head[db]++
				}
				rs[head[b]] = v
				head[b]++
			}
		}
		if d == 15 {
			return
		}
		lo := 0
		for _, hi := range tail {
			if hi-lo > 1 {
				radixSort(rs[lo:hi], d+1)
			}
			lo = hi
		}
		return
	}
}

func insertionSort(rs []Record) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Less(rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
