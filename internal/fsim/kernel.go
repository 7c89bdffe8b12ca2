package fsim

import (
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
)

// kern is the width-generic PPSFP cone engine. It simulates faults
// against one block of good values, where a block carries
// 64·Lanes() patterns (64 for W1, 256 for W4, 512 for W8), either one
// fault at a time (propagate, the sequential reference) or one
// fanout-free region at a time (region, the parallel runner): each
// region's faults are traced to its stem, and one cone walk from the
// stem serves them all. Every lane is an independent 64-pattern
// slice, so the detection word it computes for a given lane is
// identical at every width and in both forms — the wide
// instantiations only amortize the per-gate queue and mark traffic
// over more patterns.
//
// All storage is arena-style and reused across faults and blocks:
// epoch-stamped value/queue marks make the per-walk reset O(1), and a
// kern performs zero allocations in the steady state (level buckets
// and the region scratch stop growing once the deepest cones and the
// largest regions have been seen once). Not safe for concurrent use;
// the parallel runner gives each worker its own.
type kern[B circuit.Block[B]] struct {
	cc   *circuit.Compiled
	good []B // good-machine values; shared read-only or owned (simGood)

	// fval holds the faulty value of the gates a walk touched, and
	// between walks a region's memoized path masks (region.go).
	fval  []B
	vmark []uint32 // epoch stamp: fval[g] valid iff vmark[g] == epoch
	qmark []uint32 // epoch stamp: gate already queued this walk
	epoch uint32

	buckets   [][]int32 // per-level pending gates
	usedLevel []int32   // levels with non-empty buckets this walk
	in        []B       // gathered fanin scratch, sized to the widest gate

	chain []int32 // region scratch: gates climbed towards the stem
	local []B     // region scratch: per-fault masks of the current region
}

// newKern returns a kernel over cc. With ownGood the kernel allocates
// its own good-value array and fills it via simGood; without, the
// caller must point good at a shared arena before propagate.
func newKern[B circuit.Block[B]](cc *circuit.Compiled, ownGood bool) *kern[B] {
	n := cc.NumGates()
	k := &kern[B]{
		cc:      cc,
		fval:    make([]B, n),
		vmark:   make([]uint32, n),
		qmark:   make([]uint32, n),
		buckets: make([][]int32, cc.MaxLevel+1),
		in:      make([]B, cc.MaxFanin),
	}
	if ownGood {
		k.good = make([]B, n)
	}
	return k
}

// simGood evaluates the good machine for the PI words pi into the
// kernel's own good array.
func (k *kern[B]) simGood(pi []B) {
	simGoodInto(k.cc, pi, k.good, k.in)
}

// simGoodInto evaluates the full circuit in levelized compiled order,
// writing the per-gate good values into out. scratch must hold at
// least cc.MaxFanin words.
func simGoodInto[B circuit.Block[B]](cc *circuit.Compiled, pi, out, scratch []B) {
	for i, piGate := range cc.Inputs {
		out[piGate] = pi[i]
	}
	// Level 0 is exactly the PIs, whose values were just loaded.
	for _, gi := range cc.Order[cc.LevelStart[1]:] {
		lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
		in := scratch[:hi-lo]
		for p, f := range cc.Fanin[lo:hi] {
			in[p] = out[f]
		}
		out[gi] = in[0].EvalPins(cc.Type[gi], in)
	}
}

func (k *kern[B]) enqueueFanout(g int32) {
	cc := k.cc
	for _, fo := range cc.Fanout[cc.FanoutStart[g]:cc.FanoutStart[g+1]] {
		if k.qmark[fo] == k.epoch {
			continue
		}
		k.qmark[fo] = k.epoch
		lvl := cc.Level[fo]
		if len(k.buckets[lvl]) == 0 {
			k.usedLevel = append(k.usedLevel, lvl)
		}
		k.buckets[lvl] = append(k.buckets[lvl], fo)
	}
}

// propagate injects fault f against the current good values and
// returns the detection block: bit i of lane l set iff pattern 64l+i
// of the block detects f at some observed output. The caller is
// responsible for masking each lane with its block's valid-pattern
// mask. It is the per-fault reference walk; the parallel runner
// simulates by region instead (region.go).
func (k *kern[B]) propagate(f fault.Fault) B {
	return k.walk(int32(f.Gate), k.faulty(f))
}

// faulty returns the value of fault f's site gate in the faulty
// machine, before any propagation: the stuck value for a stem fault;
// for a branch fault, the site evaluated with pin f.Pin stuck (the
// driver's other fanout branches are healthy).
func (k *kern[B]) faulty(f fault.Fault) B {
	var stuck B
	if f.SA == 1 {
		stuck = stuck.Not()
	}
	if f.Pin == fault.StemPin {
		return stuck
	}
	cc := k.cc
	site := int32(f.Gate)
	lo, hi := cc.FaninStart[site], cc.FaninStart[site+1]
	in := k.in[:hi-lo]
	for p, fi := range cc.Fanin[lo:hi] {
		in[p] = k.good[fi]
	}
	in[f.Pin] = stuck
	return in[0].EvalPins(cc.Type[site], in)
}

// walk forces gate site to nv against the current good values,
// re-simulates its fanout cone and returns the lanes in which some
// observed output differs from the good machine.
func (k *kern[B]) walk(site int32, nv B) B {
	cc := k.cc
	k.epoch++
	for _, lvl := range k.usedLevel {
		k.buckets[lvl] = k.buckets[lvl][:0]
	}
	k.usedLevel = k.usedLevel[:0]

	var det B
	diff := nv.Xor(k.good[site])
	if diff.IsZero() {
		return det
	}
	k.fval[site] = nv
	k.vmark[site] = k.epoch
	if cc.Output[site] {
		det = det.Or(diff)
	}
	k.enqueueFanout(site)
	// The fault site must not be re-evaluated from its fanins.
	k.qmark[site] = k.epoch

	// Level-ordered single pass: every queued gate is evaluated once,
	// after all of its (possibly faulty) fanins are final. Fanout gates
	// sit at strictly higher levels, so the snapshot of a level's
	// bucket is complete by the time the walk reaches it.
	for lvl := int(cc.Level[site]) + 1; lvl <= cc.MaxLevel; lvl++ {
		bucket := k.buckets[lvl]
		if len(bucket) == 0 {
			continue
		}
		for _, gi := range bucket {
			lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
			in := k.in[:hi-lo]
			for p, fi := range cc.Fanin[lo:hi] {
				if k.vmark[fi] == k.epoch {
					in[p] = k.fval[fi]
				} else {
					in[p] = k.good[fi]
				}
			}
			nv := in[0].EvalPins(cc.Type[gi], in)
			diff := nv.Xor(k.good[gi])
			if diff.IsZero() {
				// Converged back to the good value: prune.
				continue
			}
			k.fval[gi] = nv
			k.vmark[gi] = k.epoch
			if cc.Output[gi] {
				det = det.Or(diff)
			}
			k.enqueueFanout(gi)
		}
	}
	return det
}
