package logic

import (
	"testing"

	"github.com/eda-go/adifo/internal/prng"
)

func TestVectorDecimalRoundTrip(t *testing.T) {
	for width := 1; width <= 10; width++ {
		for d := uint64(0); d < 1<<uint(width); d++ {
			v := VectorFromDecimal(d, width)
			if got := v.Decimal(); got != d {
				t.Fatalf("width %d: round trip of %d gave %d (vector %s)", width, d, got, v)
			}
		}
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{0, 1, 1, 0}
	if v.String() != "0110" {
		t.Fatalf("String = %q", v.String())
	}
	if v.Decimal() != 6 {
		t.Fatalf("Decimal = %d, want 6", v.Decimal())
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 0, 1}
	c := v.Clone()
	c[0] = 0
	if v[0] != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	src := prng.New(1)
	ps := NewPatternSet(9)
	var want []Vector
	for i := 0; i < 200; i++ {
		v := make(Vector, 9)
		for j := range v {
			v[j] = uint8(src.Intn(2))
		}
		want = append(want, v.Clone())
		ps.Append(v)
	}
	if ps.Len() != 200 {
		t.Fatalf("Len = %d", ps.Len())
	}
	for i, w := range want {
		got := ps.Get(i)
		if got.String() != w.String() {
			t.Fatalf("vector %d: got %s want %s", i, got, w)
		}
	}
}

func TestBitMatchesGet(t *testing.T) {
	ps := RandomPatterns(13, 150, prng.New(7))
	for i := 0; i < ps.Len(); i++ {
		v := ps.Get(i)
		for in := 0; in < ps.Inputs(); in++ {
			if ps.Bit(i, in) != v[in] {
				t.Fatalf("Bit(%d,%d) disagrees with Get", i, in)
			}
		}
	}
}

func TestBlockMask(t *testing.T) {
	ps := RandomPatterns(3, 70, prng.New(2))
	if ps.Blocks() != 2 {
		t.Fatalf("Blocks = %d, want 2", ps.Blocks())
	}
	if ps.BlockMask(0) != ^uint64(0) {
		t.Fatal("full block mask wrong")
	}
	if got := ps.BlockMask(1); got != (1<<6)-1 {
		t.Fatalf("tail mask = %x, want %x", got, (1<<6)-1)
	}
}

func TestBlockMaskExactMultiple(t *testing.T) {
	ps := RandomPatterns(3, 128, prng.New(2))
	if ps.Blocks() != 2 {
		t.Fatalf("Blocks = %d", ps.Blocks())
	}
	if ps.BlockMask(1) != ^uint64(0) {
		t.Fatal("exact-multiple tail block must be full")
	}
}

func TestRandomPatternsTailBitsClear(t *testing.T) {
	ps := RandomPatterns(5, 10, prng.New(3))
	for in := 0; in < 5; in++ {
		if w := ps.Word(in, 0); w&^((1<<10)-1) != 0 {
			t.Fatalf("input %d: bits beyond Len set: %x", in, w)
		}
	}
}

func TestExhaustivePatterns(t *testing.T) {
	ps := ExhaustivePatterns(4)
	if ps.Len() != 16 {
		t.Fatalf("Len = %d", ps.Len())
	}
	for d := 0; d < 16; d++ {
		if got := ps.Get(d).Decimal(); got != uint64(d) {
			t.Fatalf("vector %d has decimal %d", d, got)
		}
	}
}

func TestExhaustivePatternsGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExhaustivePatterns(21) did not panic")
		}
	}()
	ExhaustivePatterns(21)
}

func TestSlice(t *testing.T) {
	ps := RandomPatterns(6, 130, prng.New(5))
	sl := ps.Slice(70)
	if sl.Len() != 70 {
		t.Fatalf("Slice Len = %d", sl.Len())
	}
	for i := 0; i < 70; i++ {
		if sl.Get(i).String() != ps.Get(i).String() {
			t.Fatalf("vector %d differs after Slice", i)
		}
	}
	// Tail bits beyond 70 must be cleared in the sliced set.
	for in := 0; in < 6; in++ {
		if w := sl.Word(in, 1); w&^((1<<6)-1) != 0 {
			t.Fatalf("Slice left garbage in tail word: %x", w)
		}
	}
}

func TestAppendWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch did not panic")
		}
	}()
	NewPatternSet(3).Append(Vector{0, 1})
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Any() {
		t.Fatal("fresh bitset not empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	if !b.Test(0) || !b.Test(64) || !b.Test(129) || b.Test(1) {
		t.Fatal("Test wrong")
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 2 {
		t.Fatal("Clear wrong")
	}
	got := b.AppendIndices([]int{-1})
	if len(got) != 3 || got[0] != -1 || got[1] != 0 || got[2] != 129 {
		t.Fatalf("AppendIndices = %v", got)
	}
}

func TestBitsetClone(t *testing.T) {
	b := NewBitset(10)
	b.Set(3)
	c := b.Clone()
	c.Set(4)
	if b.Test(4) {
		t.Fatal("Clone aliases storage")
	}
	if !c.Test(3) {
		t.Fatal("Clone lost bits")
	}
}

func TestBitsetOrWord(t *testing.T) {
	b := NewBitset(128)
	b.OrWord(1, 0b101)
	if !b.Test(64) || !b.Test(66) || b.Test(65) {
		t.Fatal("OrWord placed bits wrongly")
	}
	if b.WordAt(1) != 0b101 {
		t.Fatalf("WordAt = %x", b.WordAt(1))
	}
}

func TestBitsetForEachOrder(t *testing.T) {
	b := NewBitset(200)
	want := []int{3, 64, 65, 127, 128, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPatternSetGetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Get did not panic")
		}
	}()
	RandomPatterns(2, 5, prng.New(1)).Get(5)
}
