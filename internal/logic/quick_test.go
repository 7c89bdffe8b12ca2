package logic

import (
	"testing"
	"testing/quick"

	"github.com/eda-go/adifo/internal/prng"
)

// Property: packing any bit matrix into a PatternSet and reading it
// back is the identity.
func TestQuickPatternSetRoundTrip(t *testing.T) {
	f := func(seed uint64, widthRaw, nRaw uint8) bool {
		width := int(widthRaw%20) + 1
		n := int(nRaw%150) + 1
		src := prng.New(seed)
		ps := NewPatternSet(width)
		want := make([]Vector, n)
		for i := range want {
			v := make(Vector, width)
			for j := range v {
				v[j] = uint8(src.Intn(2))
			}
			want[i] = v
			ps.Append(v.Clone())
		}
		for i := range want {
			if ps.Get(i).String() != want[i].String() {
				return false
			}
			for j := 0; j < width; j++ {
				if ps.Bit(i, j) != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Word exposes exactly the bits Append stored, with tail
// bits clear.
func TestQuickPatternSetWordsMaskClean(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%130) + 1
		ps := RandomPatterns(5, n, prng.New(seed))
		last := ps.Blocks() - 1
		mask := ps.BlockMask(last)
		for in := 0; in < 5; in++ {
			if ps.Word(in, last)&^mask != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bitset set/clear/test behave like a map[int]bool.
func TestQuickBitsetMatchesMap(t *testing.T) {
	f := func(seed uint64, nRaw uint8, opsRaw uint16) bool {
		n := int(nRaw%200) + 1
		ops := int(opsRaw % 500)
		src := prng.New(seed)
		b := NewBitset(n)
		ref := map[int]bool{}
		for i := 0; i < ops; i++ {
			idx := src.Intn(n)
			if src.Bool(0.5) {
				b.Set(idx)
				ref[idx] = true
			} else {
				b.Clear(idx)
				delete(ref, idx)
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if b.Test(i) != ref[i] {
				return false
			}
		}
		return b.Any() == (len(ref) > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Transpose swaps the axes of a bit matrix of any shape,
// including multi-word rows and columns.
func TestQuickTranspose(t *testing.T) {
	f := func(seed uint64, rRaw, cRaw uint8) bool {
		rows, cols := int(rRaw%150), int(cRaw%150)
		src := prng.New(seed)
		m := make([]*Bitset, rows)
		for r := range m {
			m[r] = NewBitset(cols)
			for c := 0; c < cols; c++ {
				if src.Bool(0.3) {
					m[r].Set(c)
				}
			}
		}
		tr := Transpose(m, cols)
		if len(tr) != cols {
			return false
		}
		for c, col := range tr {
			if col.Len() != rows {
				return false
			}
			for r := 0; r < rows; r++ {
				if col.Test(r) != m[r].Test(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Decimal/VectorFromDecimal are inverse bijections for any
// width up to 16.
func TestQuickVectorDecimalBijection(t *testing.T) {
	f := func(d uint16, widthRaw uint8) bool {
		width := int(widthRaw%16) + 1
		val := uint64(d) & ((1 << uint(width)) - 1)
		return VectorFromDecimal(val, width).Decimal() == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
