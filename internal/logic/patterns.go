package logic

import (
	"fmt"
	"math/bits"
	"strings"

	"github.com/eda-go/adifo/internal/prng"
)

// Vector is a single fully specified input vector, one byte (0 or 1)
// per primary input, in circuit input order. The byte-per-bit layout
// trades memory for simple indexing; vectors are short-lived compared
// to PatternSets.
type Vector []uint8

// String renders the vector as a bit string, e.g. "0110".
func (v Vector) String() string {
	var b strings.Builder
	b.Grow(len(v))
	for _, bit := range v {
		if bit != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Decimal returns the vector interpreted as a binary number with
// input 0 as the most significant bit, matching the decimal labelling
// of input vectors used in the paper's Table 1.
func (v Vector) Decimal() uint64 {
	if len(v) > 64 {
		panic("logic: Decimal on vector wider than 64 inputs")
	}
	var d uint64
	for _, bit := range v {
		d = d<<1 | uint64(bit&1)
	}
	return d
}

// VectorFromDecimal builds a width-bit vector from the decimal
// labelling used by Decimal (input 0 = most significant bit).
func VectorFromDecimal(d uint64, width int) Vector {
	v := make(Vector, width)
	for i := width - 1; i >= 0; i-- {
		v[i] = uint8(d & 1)
		d >>= 1
	}
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// PatternSet is a packed, immutable-size collection of input vectors.
// Bits are stored transposed — per input, one uint64 word per block of
// 64 vectors — which is exactly the layout the bit-parallel simulators
// consume, so simulation reads words straight out of the set with no
// repacking.
type PatternSet struct {
	inputs int
	n      int
	// bits[input][block] holds vectors block*64 .. block*64+63 for
	// that input, vector i at bit position i%64.
	bits [][]uint64
}

// NewPatternSet returns an empty pattern set for a circuit with the
// given number of primary inputs.
func NewPatternSet(inputs int) *PatternSet {
	if inputs < 0 {
		panic("logic: negative input count")
	}
	return &PatternSet{inputs: inputs, bits: make([][]uint64, inputs)}
}

// RandomPatterns returns a set of n uniformly random vectors drawn
// from src.
func RandomPatterns(inputs, n int, src *prng.Source) *PatternSet {
	ps := NewPatternSet(inputs)
	blocks := (n + WordBits - 1) / WordBits
	for i := 0; i < inputs; i++ {
		ps.bits[i] = make([]uint64, blocks)
		for b := 0; b < blocks; b++ {
			ps.bits[i][b] = src.Word()
		}
	}
	ps.n = n
	ps.maskTail()
	return ps
}

// ExhaustivePatterns returns all 2^inputs vectors in increasing
// decimal order (see Vector.Decimal). It panics if inputs > 20 to
// guard against accidental exponential blow-ups; the exhaustive mode
// exists for the small worked examples (e.g. the 4-input lion circuit
// of Table 1).
func ExhaustivePatterns(inputs int) *PatternSet {
	if inputs > 20 {
		panic(fmt.Sprintf("logic: ExhaustivePatterns(%d) would enumerate 2^%d vectors", inputs, inputs))
	}
	n := 1 << inputs
	ps := NewPatternSet(inputs)
	for d := 0; d < n; d++ {
		ps.Append(VectorFromDecimal(uint64(d), inputs))
	}
	return ps
}

// Inputs returns the number of primary inputs per vector.
func (ps *PatternSet) Inputs() int { return ps.inputs }

// Len returns the number of vectors in the set.
func (ps *PatternSet) Len() int { return ps.n }

// Blocks returns the number of 64-vector blocks, i.e.
// ceil(Len()/64).
func (ps *PatternSet) Blocks() int { return (ps.n + WordBits - 1) / WordBits }

// Word returns the packed word for the given input and block. Vector
// block*64+i occupies bit i. Bits beyond Len() are zero.
func (ps *PatternSet) Word(input, block int) uint64 {
	return ps.bits[input][block]
}

// BlockMask returns the valid-pattern mask for a block: bit i is set
// iff vector block*64+i exists.
func (ps *PatternSet) BlockMask(block int) uint64 {
	full := ps.n / WordBits
	if block < full {
		return ^uint64(0)
	}
	rem := ps.n % WordBits
	if block == full && rem > 0 {
		return (uint64(1) << rem) - 1
	}
	return 0
}

// Append adds one vector to the set. The vector length must equal
// Inputs().
func (ps *PatternSet) Append(v Vector) {
	if len(v) != ps.inputs {
		panic(fmt.Sprintf("logic: appending %d-bit vector to %d-input set", len(v), ps.inputs))
	}
	block, bit := ps.n/WordBits, uint(ps.n%WordBits)
	for i := 0; i < ps.inputs; i++ {
		if bit == 0 {
			ps.bits[i] = append(ps.bits[i], 0)
		}
		if v[i] != 0 {
			ps.bits[i][block] |= uint64(1) << bit
		}
	}
	ps.n++
}

// Get returns vector i as a freshly allocated Vector.
func (ps *PatternSet) Get(i int) Vector {
	if i < 0 || i >= ps.n {
		panic(fmt.Sprintf("logic: pattern index %d out of range [0,%d)", i, ps.n))
	}
	v := make(Vector, ps.inputs)
	block, bit := i/WordBits, uint(i%WordBits)
	for in := 0; in < ps.inputs; in++ {
		v[in] = uint8(ps.bits[in][block] >> bit & 1)
	}
	return v
}

// Bit returns the value of the given input in vector i.
func (ps *PatternSet) Bit(i, input int) uint8 {
	block, bit := i/WordBits, uint(i%WordBits)
	return uint8(ps.bits[input][block] >> bit & 1)
}

// Slice returns a new set holding vectors [0, n) of ps. It panics if
// n exceeds Len. The underlying words are copied, so the two sets are
// independent afterwards.
func (ps *PatternSet) Slice(n int) *PatternSet {
	if n < 0 || n > ps.n {
		panic(fmt.Sprintf("logic: Slice(%d) of %d-vector set", n, ps.n))
	}
	out := NewPatternSet(ps.inputs)
	blocks := (n + WordBits - 1) / WordBits
	for i := 0; i < ps.inputs; i++ {
		out.bits[i] = append([]uint64(nil), ps.bits[i][:blocks]...)
	}
	out.n = n
	out.maskTail()
	return out
}

// maskTail clears storage bits beyond Len so that Word never exposes
// garbage for non-existent vectors.
func (ps *PatternSet) maskTail() {
	rem := ps.n % WordBits
	if rem == 0 {
		return
	}
	blocks := ps.Blocks()
	mask := (uint64(1) << rem) - 1
	for i := range ps.bits {
		if len(ps.bits[i]) >= blocks {
			ps.bits[i][blocks-1] &= mask
		}
	}
}

// Bitset is a fixed-capacity bit set used for detection sets D(f)
// (bits indexed by vector) and fault subsets (bits indexed by fault).
type Bitset struct {
	n     int
	words []uint64
}

// NewBitset returns a bitset able to hold n bits, all clear.
func NewBitset(n int) *Bitset {
	return &Bitset{n: n, words: make([]uint64, (n+WordBits-1)/WordBits)}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i/WordBits] |= 1 << uint(i%WordBits) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i/WordBits] &^= 1 << uint(i%WordBits) }

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	return b.words[i/WordBits]>>uint(i%WordBits)&1 != 0
}

// OrWord ORs a raw 64-bit word into the block'th word. Callers use it
// to merge per-block detection masks straight from the simulator.
func (b *Bitset) OrWord(block int, w uint64) { b.words[block] |= w }

// WordAt returns the block'th raw word.
func (b *Bitset) WordAt(block int) uint64 { return b.words[block] }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in increasing order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			fn(wi*WordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendIndices appends the set bits to dst in increasing order.
func (b *Bitset) AppendIndices(dst []int) []int {
	for wi, w := range b.words {
		for w != 0 {
			dst = append(dst, wi*WordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{n: b.n, words: append([]uint64(nil), b.words...)}
}

// Transpose returns the transpose of a bit matrix given by its rows:
// bit r of column c is set iff bit c of rows[r] is. Every set bit of a
// row must lie below cols. The columns hold len(rows) bits each and
// share one backing array.
func Transpose(rows []*Bitset, cols int) []*Bitset {
	stride := (len(rows) + WordBits - 1) / WordBits
	words := make([]uint64, cols*stride)
	out := make([]*Bitset, cols)
	for c := range out {
		out[c] = &Bitset{n: len(rows), words: words[c*stride : (c+1)*stride : (c+1)*stride]}
	}
	for r, row := range rows {
		bit := uint64(1) << uint(r%WordBits)
		for w, x := range row.words {
			for ; x != 0; x &= x - 1 {
				out[w*WordBits+bits.TrailingZeros64(x)].words[r/WordBits] |= bit
			}
		}
	}
	return out
}
