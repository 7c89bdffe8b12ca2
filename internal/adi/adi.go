// Package adi implements the paper's contribution: the accidental
// detection index (ADI) and the fault orders built from it.
//
// # Definition (Section 2 of the paper)
//
// Given a circuit, a target fault set F and a vector set U, simulate
// the faults of F under U without fault dropping. For every vector
// u ∈ U let ndet(u) be the number of faults u detects, and for every
// fault f let D(f) ⊆ U be the vectors that detect f. Then
//
//	ADI(f) = min{ ndet(u) : u ∈ D(f) }   for f detected by U,
//	ADI(f) = 0                           otherwise.
//
// ADI(f) estimates (conservatively) how many faults a test generated
// for f will detect accidentally: whatever vector the ATPG produces
// for f, if it behaves like a vector of U that detects f, it detects
// at least min ndet faults. A fault f itself is counted, so
// ADI(f) >= 1 for every detected fault.
//
// # Orders (Section 3)
//
// Six orders over fault indices are provided; all are permutations of
// the full target set F (faults detected by U are deliberately NOT
// dropped — see the paper's Section 1 for the rationale):
//
//	Orig   original listing order (the comparison baseline)
//	Incr0  increasing ADI, zero-ADI faults last (adversarial control)
//	Decr   decreasing ADI, zero-ADI faults last
//	Decr0  zero-ADI faults first, then decreasing ADI
//	Dynm   like Decr but ndet/ADI are updated dynamically as faults
//	       are placed (the paper's F_dynm)
//	Dynm0  zero-ADI faults first, then the dynamic process (F_0dynm)
//
// Ties are broken by fault index, matching the worked lion example in
// the paper (among equal ADI, the earlier-listed fault is placed
// first).
package adi

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
)

// Index holds the accidental detection indices of one fault list under
// one vector set, together with the raw detection data needed by the
// dynamic orders.
type Index struct {
	List *fault.List
	U    *logic.PatternSet

	// Ndet[u] is the number of faults detected by vector u (no
	// dropping).
	Ndet []int

	// Det[f] is D(f), the set of vectors detecting fault f.
	Det []*logic.Bitset

	// ADI[f] is the accidental detection index of fault f; zero for
	// faults not detected by U.
	ADI []int

	// dyn is the dynamic process over the faults U detects, which the
	// Dynm and Dynm0 orders share; dynOnce computes it on first use.
	// Order reads the fields above only then, so they must not change
	// once Order has been called.
	dynOnce sync.Once
	dyn     []int
}

// Compute fault-simulates fl under U without dropping and derives the
// accidental detection indices. The simulation runs on the parallel
// engine at the automatic block width, which is bit-identical to the
// sequential reference fsim.Run.
func Compute(fl *fault.List, u *logic.PatternSet) *Index {
	res := fsim.RunParallelWith(fl, u, fsim.ParallelOptions{Options: fsim.Options{Mode: fsim.NoDrop}})
	return FromResult(res, u)
}

// ComputeNDetect estimates the indices from n-detection fault
// simulation instead of full no-drop simulation — the cheaper
// alternative the paper mentions ("it is also possible to use
// n-detection fault simulation to estimate ndet(u)", Section 2).
// Faults are dropped after their n-th detection, so ndet(u) counts
// only pre-drop detections and D(f) holds at most n vectors; the
// resulting indices are an under-estimate whose ordering quality is
// evaluated by the ablation benchmarks.
func ComputeNDetect(fl *fault.List, u *logic.PatternSet, n int) *Index {
	res := fsim.RunParallelWith(fl, u, fsim.ParallelOptions{Options: fsim.Options{Mode: fsim.NDetect, N: n}})
	return FromResult(res, u)
}

// FromResult derives the indices from an existing simulation result
// that carries detection sets (NoDrop or NDetect mode; it panics on a
// Drop-mode result, which records no D(f)).
func FromResult(res *fsim.Result, u *logic.PatternSet) *Index {
	if res.Det == nil {
		panic("adi: FromResult requires a NoDrop or NDetect simulation result")
	}
	ix := &Index{
		List: res.List,
		U:    u,
		Ndet: append([]int(nil), res.Ndet...),
		Det:  res.Det,
		ADI:  make([]int, res.List.Len()),
	}
	for fi := range ix.ADI {
		ix.ADI[fi] = minNdet(ix.Det[fi], ix.Ndet)
	}
	return ix
}

// minNdet returns min ndet(u) over the set bits of det, or 0 when det
// is empty.
func minNdet(det *logic.Bitset, ndet []int) int {
	minV := 0
	det.ForEach(func(u int) {
		if minV == 0 || ndet[u] < minV {
			minV = ndet[u]
		}
	})
	return minV
}

// DetectedByU reports whether fault f is detected by U (i.e. belongs
// to the paper's F_U).
func (ix *Index) DetectedByU(f int) bool { return ix.Det[f].Any() }

// NumDetected returns |F_U|.
func (ix *Index) NumDetected() int {
	n := 0
	for fi := range ix.ADI {
		if ix.DetectedByU(fi) {
			n++
		}
	}
	return n
}

// MinMax returns the smallest and largest ADI over faults detected by
// U (the paper's ADImin and ADImax, Table 4). Both are zero when no
// fault is detected.
func (ix *Index) MinMax() (minADI, maxADI int) {
	for fi, a := range ix.ADI {
		if !ix.DetectedByU(fi) {
			continue
		}
		if minADI == 0 || a < minADI {
			minADI = a
		}
		if a > maxADI {
			maxADI = a
		}
	}
	return minADI, maxADI
}

// Ratio returns ADImax/ADImin (0 when undefined), the spread measure
// of the paper's Table 4.
func (ix *Index) Ratio() float64 {
	mn, mx := ix.MinMax()
	if mn == 0 {
		return 0
	}
	return float64(mx) / float64(mn)
}

// OrderKind names one of the six fault orders.
type OrderKind int

// The six orders of the paper, in the order they are introduced.
const (
	Orig OrderKind = iota
	Incr0
	Decr
	Decr0
	Dynm
	Dynm0
)

// String returns the paper's label for the order.
func (k OrderKind) String() string {
	switch k {
	case Orig:
		return "orig"
	case Incr0:
		return "incr0"
	case Decr:
		return "decr"
	case Decr0:
		return "0decr"
	case Dynm:
		return "dynm"
	case Dynm0:
		return "0dynm"
	}
	return fmt.Sprintf("OrderKind(%d)", int(k))
}

// ParseOrder maps the paper's order labels to an OrderKind. It
// accepts every String form, case-insensitively, plus the decr0 and
// dynm0 spellings.
func ParseOrder(name string) (OrderKind, error) {
	switch strings.ToLower(name) {
	case "orig":
		return Orig, nil
	case "incr0":
		return Incr0, nil
	case "decr":
		return Decr, nil
	case "0decr", "decr0":
		return Decr0, nil
	case "dynm":
		return Dynm, nil
	case "0dynm", "dynm0":
		return Dynm0, nil
	}
	return 0, fmt.Errorf("unknown order %q (want orig, incr0, decr, 0decr, dynm or 0dynm)", name)
}

// AllOrders lists every OrderKind.
func AllOrders() []OrderKind {
	return []OrderKind{Orig, Incr0, Decr, Decr0, Dynm, Dynm0}
}

// Order returns the fault indices of ix.List permuted according to
// kind. The result is always a permutation of [0, n).
func (ix *Index) Order(kind OrderKind) []int {
	n := len(ix.ADI)
	switch kind {
	case Orig:
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	case Incr0:
		nz, z := ix.split()
		sort.SliceStable(nz, func(a, b int) bool { return ix.ADI[nz[a]] < ix.ADI[nz[b]] })
		return append(nz, z...)
	case Decr:
		nz, z := ix.split()
		sort.SliceStable(nz, func(a, b int) bool { return ix.ADI[nz[a]] > ix.ADI[nz[b]] })
		return append(nz, z...)
	case Decr0:
		nz, z := ix.split()
		sort.SliceStable(nz, func(a, b int) bool { return ix.ADI[nz[a]] > ix.ADI[nz[b]] })
		return append(z, nz...)
	case Dynm:
		_, z := ix.split()
		return append(append(make([]int, 0, n), ix.dynamic()...), z...)
	case Dynm0:
		_, z := ix.split()
		return append(z, ix.dynamic()...)
	}
	panic(fmt.Sprintf("adi: unknown order kind %d", int(kind)))
}

// split partitions fault indices into (detected-by-U, zero-ADI) lists,
// both in original order.
func (ix *Index) split() (nonzero, zero []int) {
	for fi := range ix.ADI {
		if ix.DetectedByU(fi) {
			nonzero = append(nonzero, fi)
		} else {
			zero = append(zero, fi)
		}
	}
	return nonzero, zero
}

// dynamic returns the dynamic process over the faults U detects,
// computed once per index however many callers ask. Callers copy it
// and must not change it.
func (ix *Index) dynamic() []int {
	ix.dynOnce.Do(func() {
		nz, _ := ix.split()
		ix.dyn = ix.dynamicOrder(nz)
	})
	return ix.dyn
}

// dynamicOrder implements the paper's dynamic ordering process over
// the given faults (all detected by U): repeatedly place the fault
// with the highest current ADI, the lowest fault index among equals,
// then decrement ndet(u) for every u ∈ D(f) of the placed fault and
// update the affected indices.
//
// The current indices are kept exact, bucketed by value: byKey[k] is
// the set of unplaced faults whose index is k. ADI(g) ≤ ndet(u) for
// every u ∈ D(g), and ndet only ever falls by one, so when ndet(u)
// drops from k to k−1 the indices that change are exactly those of
// the unplaced faults g with u ∈ D(g) and ADI(g) = k, and each becomes
// k−1: a word-wise intersection of byVec[u], the faults u detects,
// with byKey[k]. No index ever rises, so the highest non-empty bucket
// only moves down, and while it stays put its lowest fault only moves
// up.
func (ix *Index) dynamicOrder(faults []int) []int {
	stride := (len(ix.ADI) + logic.WordBits - 1) / logic.WordBits
	top := 0
	for _, fi := range faults {
		top = max(top, ix.ADI[fi])
	}
	byKey := make([]uint64, (top+1)*stride) // row k: words [k*stride, (k+1)*stride)
	for _, fi := range faults {
		byKey[ix.ADI[fi]*stride+fi/logic.WordBits] |= 1 << uint(fi%logic.WordBits)
	}
	byVec := logic.Transpose(ix.Det, len(ix.Ndet))
	ndet := append([]int(nil), ix.Ndet...)

	out := make([]int, 0, len(faults))
	cur := 0 // words of row top before cur are empty
	for len(out) < len(faults) {
		row := byKey[top*stride : (top+1)*stride]
		for cur < stride && row[cur] == 0 {
			cur++
		}
		if cur == stride {
			top--
			cur = 0
			continue
		}
		f := cur*logic.WordBits + bits.TrailingZeros64(row[cur])
		row[cur] &= row[cur] - 1
		out = append(out, f)

		det := ix.Det[f]
		for w := range (det.Len() + logic.WordBits - 1) / logic.WordBits {
			for d := det.WordAt(w); d != 0; d &= d - 1 {
				u := w*logic.WordBits + bits.TrailingZeros64(d)
				k := ndet[u]
				ndet[u] = k - 1
				// No unplaced fault has an index above top, and with
				// k <= 1 the placed fault was u's last detection.
				if k > top || k <= 1 {
					continue
				}
				vec := byVec[u]
				from := byKey[k*stride : (k+1)*stride]
				to := byKey[(k-1)*stride : k*stride]
				for i := range from {
					if m := from[i] & vec.WordAt(i); m != 0 {
						from[i] &^= m
						to[i] |= m
					}
				}
			}
		}
	}
	return out
}
