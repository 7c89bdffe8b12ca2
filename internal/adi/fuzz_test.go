package adi

import (
	"testing"

	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
)

// FuzzDynamicOrder diffs dynamicOrder against the naive reference on
// arbitrary detection matrices of 1–200 faults by 1–200 vectors, one to
// four words on each axis. The cells fill the matrix fault by fault,
// one bit per (fault, vector) pair, and repeat when they run out, which
// makes rows alike and indices tie. Ndet counts the faults whose D(f)
// holds each vector, and FromResult derives the indices, exactly as
// for a simulation result.
func FuzzDynamicOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, nfRaw, nuRaw uint8, cells []byte) {
		nf, nu := 1+int(nfRaw)%200, 1+int(nuRaw)%200
		det := make([]*logic.Bitset, nf)
		ndet := make([]int, nu)
		for fi := range det {
			det[fi] = logic.NewBitset(nu)
			for u := 0; u < nu && len(cells) > 0; u++ {
				if i := fi*nu + u; cells[i/8%len(cells)]>>(i%8)&1 != 0 {
					det[fi].Set(u)
					ndet[u]++
				}
			}
		}
		ix := FromResult(&fsim.Result{List: &fault.List{Faults: make([]fault.Fault, nf)}, Ndet: ndet, Det: det}, nil)
		nz, _ := ix.split()
		diffNaive(t, ix, nz)
	})
}
