package adi

import (
	"testing"
	"testing/quick"

	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// Property: on arbitrary generated circuits and vector budgets, the
// core ADI invariants hold and every order is a permutation with the
// documented zero-block placement.
func TestQuickADIInvariantsOnGeneratedCircuits(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		c := gen.Generate(gen.Config{Name: "q", Inputs: 6, Gates: 45, Seed: seed})
		fl := fault.CollapsedUniverse(c)
		n := int(nRaw%60) + 4
		u := logic.RandomPatterns(c.NumInputs(), n, prng.New(seed^0xa5a5))
		ix := Compute(fl, u)

		for fi := range fl.Faults {
			switch {
			case ix.DetectedByU(fi) && ix.ADI[fi] < 1:
				return false
			case !ix.DetectedByU(fi) && ix.ADI[fi] != 0:
				return false
			}
			// ADI(f) really is the minimum ndet over D(f).
			min := 0
			ix.Det[fi].ForEach(func(uIdx int) {
				if min == 0 || ix.Ndet[uIdx] < min {
					min = ix.Ndet[uIdx]
				}
			})
			if ix.ADI[fi] != min {
				return false
			}
		}

		for _, kind := range AllOrders() {
			ord := ix.Order(kind)
			if len(ord) != fl.Len() {
				return false
			}
			seen := make([]bool, fl.Len())
			for _, fi := range ord {
				if fi < 0 || fi >= fl.Len() || seen[fi] {
					return false
				}
				seen[fi] = true
			}
		}

		// Dynamic order head equals static max (first placement sees
		// unmodified ndet).
		dyn := ix.Order(Dynm)
		if len(dyn) > 0 && ix.NumDetected() > 0 {
			first := dyn[0]
			for fi := range fl.Faults {
				if ix.ADI[fi] > ix.ADI[first] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the bucketed dynamic order equals the naive quadratic
// reference on arbitrary generated circuits.
func TestQuickDynamicOrderMatchesNaiveOnGeneratedCircuits(t *testing.T) {
	f := func(seed uint64) bool {
		c := gen.Generate(gen.Config{Name: "q", Inputs: 5, Gates: 30, Seed: seed})
		fl := fault.CollapsedUniverse(c)
		u := logic.RandomPatterns(c.NumInputs(), 24, prng.New(seed^0x77))
		ix := Compute(fl, u)
		nz, _ := ix.split()
		want := naiveDynamicOrder(ix, nz)
		got := ix.dynamicOrder(nz)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
