package fsim

import (
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
)

// Stem-region simulation (Antreich and Schulz, IEEE TCAD 1987). Inside
// a fanout-free region every gate has one fanout path, to the region's
// stem (circuit.Compiled's Root, Succ and SuccSlot). A fault effect
// inside the region can only leave it as a flip of the stem, so per
// block and lane:
//
//   - path(g), the lanes where a flip of g flips the stem, is the AND of
//     the sensitizations along g's path: Succ[g] evaluated with slot
//     SuccSlot[g] inverted, XOR its good value (critical path tracing,
//     Abramovici, Menon and Miller, DAC 1983). It is exact: no side
//     input of the path lies in the flipped gate's fanout;
//   - local(f), the lanes where fault f flips the stem, is the flip at
//     the fault site AND path(site);
//   - obs, the lanes where a flip of the stem reaches an observed
//     output, is one cone walk from the stem with the stem flipped in
//     the union of the region's locals. Lanes are independent, so the
//     walk is exact in every lane of the union;
//   - f is detected in local(f) AND obs, which equals propagate's
//     detection word in every lane.

// region simulates the faults faults[idx[i]] of the fanout-free region
// whose stem is stem, against the current good values, and returns
// their detection words in idx order. The result aliases the kernel's
// scratch and is valid until the next call.
func (k *kern[B]) region(faults []fault.Fault, idx []int, stem int32) []B {
	// Pass 1: each fault's local mask, with the path masks memoized in
	// fval under a stamp of their own. The stem walk below bumps the
	// epoch again, so the memo never leaks into it.
	k.epoch++
	var union B
	local := k.local[:0]
	for _, fi := range idx {
		f := faults[fi]
		site := int32(f.Gate)
		l := k.faulty(f).Xor(k.good[site])
		if site != stem && !l.IsZero() {
			l = l.And(k.path(site))
		}
		local = append(local, l)
		union = union.Or(l)
	}
	k.local = local
	if union.IsZero() {
		return local
	}
	// One walk from the stem, flipped only where some fault of the
	// region flips it, so it evaluates no gate that the region's
	// per-fault walks would not have. Pass 2 masks each local with it.
	obs := k.walk(stem, k.good[stem].Xor(union))
	for i := range local {
		local[i] = local[i].And(obs)
	}
	return local
}

// path returns the lanes where a flip of gate g flips its region's
// stem. g must not be a stem. Masks are memoized in fval for the
// gates climbed, valid while vmark holds the current epoch.
func (k *kern[B]) path(g int32) B {
	cc := k.cc
	chain := k.chain[:0]
	var p B
	for {
		if k.vmark[g] == k.epoch {
			p = k.fval[g]
			break
		}
		s := cc.Succ[g]
		if s < 0 {
			p = p.Not() // the stem flips itself in every lane
			break
		}
		chain = append(chain, g)
		g = s
	}
	for i := len(chain) - 1; i >= 0; i-- {
		g := chain[i]
		if !p.IsZero() {
			s := cc.Succ[g]
			lo, hi := cc.FaninStart[s], cc.FaninStart[s+1]
			in := k.in[:hi-lo]
			for q, fi := range cc.Fanin[lo:hi] {
				in[q] = k.good[fi]
			}
			in[cc.SuccSlot[g]-lo] = k.good[g].Not()
			p = p.And(in[0].EvalPins(cc.Type[s], in).Xor(k.good[s]))
		}
		k.fval[g] = p
		k.vmark[g] = k.epoch
	}
	k.chain = chain
	return p
}

// regionOrder returns the fault indices of fl grouped by fanout-free
// region: regions in ascending stem id, faults in index order within
// one. The parallel runner needs each region's faults contiguous, and
// the barrier's in-place compaction keeps them so.
func regionOrder(fl *fault.List, cc *circuit.Compiled) []int {
	start := make([]int, cc.NumGates()+1)
	for _, f := range fl.Faults {
		start[cc.Root[f.Gate]+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	order := make([]int, len(fl.Faults))
	for i, f := range fl.Faults {
		r := cc.Root[f.Gate]
		order[start[r]] = i
		start[r]++
	}
	return order
}
