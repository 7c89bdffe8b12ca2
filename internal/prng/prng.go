// Package prng provides a small, fast, explicitly seeded pseudo-random
// number generator used by every stochastic component of the library
// (circuit generation, random test vectors, PODEM random fill).
//
// All experiments in the repository are reproducible bit-for-bit because
// every randomized step threads one of these generators with a fixed
// seed. We deliberately do not use math/rand: its global state and
// version-dependent stream would make the published tables unstable
// across Go releases.
//
// The generator is xorshift64* (Vigna, 2014): a 64-bit xorshift engine
// with a multiplicative output scrambler. It passes BigCrush for the
// output sizes we draw and is far stronger than needed for workload
// generation.
package prng

// Source is a deterministic xorshift64* generator. The zero value is
// not usable; construct with New. Source is not safe for concurrent
// use; give each goroutine its own Source.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because the xorshift state must never be
// zero.
func New(seed uint64) *Source {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15 // golden-ratio constant
	}
	s := &Source{state: seed}
	// Warm up so that low-entropy seeds (1, 2, 3...) decorrelate.
	for i := 0; i < 4; i++ {
		s.Uint64()
	}
	return s
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if
// n <= 0. The modulo bias is negligible for the n used here (n is
// always far below 2^32), but we still use Lemire's multiply-shift
// reduction which is both faster and unbiased enough for workloads.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with non-positive n")
	}
	// 128-bit multiply-high via two 64x64->64 halves.
	x := s.Uint64()
	hi, _ := mul64(x, uint64(n))
	return int(hi)
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean with probability p of being
// true.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Word returns a 64-bit word with each bit independently set with
// probability 1/2. It is an alias of Uint64 with a name that reads
// well at bit-parallel pattern-generation call sites.
func (s *Source) Word() uint64 { return s.Uint64() }

// Perm returns a pseudo-random permutation of [0, n) using the
// Fisher-Yates shuffle.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly permutes the first n elements using the
// provided swap function, mirroring the math/rand API shape.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}
