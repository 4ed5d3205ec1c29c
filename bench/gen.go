package main

import (
	"math/bits"
	"math/rand"
)

// Every value the benchmark stores is this fixed function of its key, so any
// answer the library returns can be checked without keeping the data.
const (
	valMul = 0x9E3779B97F4A7C15
	valAdd = 0x632BE59BD9B4E019
)

func valOf(key uint64) uint64 { return key*valMul + valAdd }

// valSum is the sum of valOf over the n keys first, first+step, ... (mod 2^64):
// the checksum a scan over that arithmetic progression must return.
func valSum(first, step, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	// Sum of the keys is n*first + step*n(n-1)/2; one of n, n-1 is even.
	a, b := n, n-1
	if a%2 == 0 {
		a /= 2
	} else {
		b /= 2
	}
	return (n*first+step*a*b)*valMul + n*valAdd
}

// mix64 is a bijection on uint64 (the splitmix64 finaliser), so distinct
// inputs give distinct, well-scattered keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// scatter maps rank r in [0, n) to another position in [0, n), one to one,
// for n a power of two: popular Zipf ranks land all over the keyspace instead
// of on neighbouring leaves.
func scatter(r, n uint64) uint64 { return (r*0x9E3779B97F4A7C15 + 0x7F4A7C15) & (n - 1) }

// keyMix draws positions in [0, n): requests alternate between a Zipf(1.1)
// popularity law over scattered ranks and uniform positions, so half the
// traffic can be served by a cache and half cannot.
type keyMix struct {
	n    uint64
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newKeyMix(seed int64, n uint64) *keyMix {
	if bits.OnesCount64(n) != 1 {
		panic("keyMix: n must be a power of two")
	}
	rng := rand.New(rand.NewSource(seed))
	return &keyMix{n: n, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, n-1)}
}

func (m *keyMix) uniform() uint64 { return m.rng.Uint64() & (m.n - 1) }
func (m *keyMix) skewed() uint64  { return scatter(m.zipf.Uint64(), m.n) }

// pos draws a position for request number req: even requests are skewed, odd
// ones uniform.
func (m *keyMix) pos(req int) uint64 {
	if req%2 == 0 {
		return m.skewed()
	}
	return m.uniform()
}

// subSeed derives an independent stream seed from the run seed and a label,
// so clients, passes and probes never share a generator.
func subSeed(seed int64, parts ...uint64) int64 {
	x := mix64(uint64(seed) + 0x9E3779B97F4A7C15)
	for _, p := range parts {
		x = mix64(x ^ (p + 0x9E3779B97F4A7C15))
	}
	return int64(x >> 1)
}
