package store

// filter is a Bloom filter of keys in its one-word form: a key's hash picks
// one 64-bit word and sets four bits of it, so adding a key and probing for
// one each touch a single word. Sized at 12 bits per key (newFilter), it
// answers "absent" for all but about 1 % of the keys it does not hold
// (TestFilterFalsePositives). Every filter in the store has this shape:
// each write front's and the young directory's.
type filter []uint64

// filterBits is the filter's room per key.
const filterBits = 12

// newFilter returns an empty filter with room for keys keys.
func newFilter(keys int) filter { return make(filter, max(1, (filterBits*keys+63)/64)) }

// filterHash mixes key into 64 well-spread bits (murmur3's finaliser): the
// high 32 pick the word, the low 24 the four bits.
func filterHash(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	return key ^ key>>33
}

// word returns the word hash h picks.
func (f filter) word(h uint64) *uint64 { return &f[(h>>32)*uint64(len(f))>>32] }

// bitsOf returns the four bits hash h sets in its word.
func bitsOf(h uint64) uint64 {
	return 1<<(h&63) | 1<<(h>>6&63) | 1<<(h>>12&63) | 1<<(h>>18&63)
}

// add records key.
func (f filter) add(key uint64) {
	h := filterHash(key)
	*f.word(h) |= bitsOf(h)
}

// mayHold reports whether key may have been added; false is certain.
func (f filter) mayHold(key uint64) bool {
	h := filterHash(key)
	m := bitsOf(h)
	return *f.word(h)&m == m
}
