// Package reorder implements static test-set reordering for steep
// fault-coverage curves — the method of Lin, Rajski, Pomeranz & Reddy,
// "On Static Test Compaction and Test Pattern Ordering for Scan
// Designs" (ITC 2001), which the ADI paper cites as reference [7] and
// compares against for its second application.
//
// Given an existing test set, the greedy reordering repeatedly picks
// the vector that detects the largest number of still-undetected
// faults ("tests that detect larger numbers of faults appear earlier
// in the reordered test set"). The ADI paper's point is that ordering
// the *fault targets* during generation gets most of this benefit for
// free; this package provides the post-hoc alternative so the two can
// be compared (see the steepcurve example and the reordering ablation
// benchmark).
package reorder

import (
	"math/bits"

	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
)

// Result describes one reordering.
type Result struct {
	// Perm maps new position -> original test index.
	Perm []int
	// Curve[i] is the number of faults detected by the first i+1
	// reordered tests.
	Curve []int
	// Detected is the total number of faults the set detects.
	Detected int
}

// Greedy reorders the tests of ps so that each position is occupied
// by the vector detecting the most still-undetected faults of fl,
// ties broken by original position. Fully dominated vectors (no new
// detections) keep their relative order at the tail.
//
// The detection matrix comes from one no-drop simulation, so the cost
// is one PPSFP pass plus O(k²) bitset scans for k tests — fine for
// the test-set sizes ATPG produces.
func Greedy(fl *fault.List, ps *logic.PatternSet) *Result {
	k := ps.Len()
	res := fsim.RunParallelWith(fl, ps, fsim.ParallelOptions{Options: fsim.Options{Mode: fsim.NoDrop}})

	// detBy[u] = set of faults vector u detects.
	detBy := logic.Transpose(res.Det, k)

	remaining := logic.NewBitset(fl.Len())
	for fi := range fl.Faults {
		if res.Detected(fi) {
			remaining.Set(fi)
		}
	}
	total := remaining.Count()

	used := make([]bool, k)
	out := &Result{Detected: total}
	covered := 0
	for len(out.Perm) < k {
		best, bestNew := -1, -1
		for u := 0; u < k; u++ {
			if used[u] {
				continue
			}
			newDet := countAnd(detBy[u], remaining)
			if newDet > bestNew {
				best, bestNew = u, newDet
			}
		}
		if bestNew == 0 {
			// Everything still detectable is covered; append the
			// dominated tail in original order.
			for u := 0; u < k; u++ {
				if !used[u] {
					out.Perm = append(out.Perm, u)
					out.Curve = append(out.Curve, covered)
				}
			}
			break
		}
		used[best] = true
		out.Perm = append(out.Perm, best)
		covered += bestNew
		out.Curve = append(out.Curve, covered)
		detBy[best].ForEach(func(fi int) { remaining.Clear(fi) })
	}
	return out
}

// countAnd returns |a ∩ b| without materializing the intersection.
func countAnd(a, b *logic.Bitset) int {
	n := 0
	words := (a.Len() + logic.WordBits - 1) / logic.WordBits
	for w := 0; w < words; w++ {
		n += bits.OnesCount64(a.WordAt(w) & b.WordAt(w))
	}
	return n
}
