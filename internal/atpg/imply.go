package atpg

import (
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/logic"
)

// Packed two-rail values.
//
// Each line's good and faulty three-valued values share one byte. A
// machine's value is two rails, "is 1" and "is 0"; X has both rails
// clear. With that encoding every gate function is a handful of bitwise
// operations that evaluate both machines at once: AND takes the AND of
// the "is 1" rails and the OR of the "is 0" rails, an inverting gate
// swaps the rails, XOR pairs them up. A controlling binary input
// decides the output even when other inputs are X, exactly the
// optimistic semantics of circuit.EvalV3, which stays the test oracle.
const (
	good1 uint8 = 1 << iota // good machine is 1
	good0                   // good machine is 0
	bad1                    // faulty machine is 1
	bad0                    // faulty machine is 0

	ones      = good1 | bad1 // the "is 1" rails of both machines
	zeros     = good0 | bad0 // the "is 0" rails of both machines
	goodRails = good1 | good0
	badRails  = bad1 | bad0
)

// swapRails complements both machines: 0 and 1 trade rails, X stays X.
func swapRails(v uint8) uint8 { return v&ones<<1 | v>>1&ones }

// evalPacked evaluates a gate of type t whose packed fanin values are
// val[fanin[0]], val[fanin[1]], …, for both machines at once. t must
// be combinational.
func evalPacked(t circuit.GateType, fanin []int32, val []uint8) uint8 {
	v := val[fanin[0]]
	switch t {
	case circuit.Buf:
	case circuit.Not:
		v = swapRails(v)
	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		all, some := v, v
		for _, fi := range fanin[1:] {
			x := val[fi]
			all &= x
			some |= x
		}
		if t == circuit.And || t == circuit.Nand {
			v = all&ones | some&zeros
		} else {
			v = some&ones | all&zeros
		}
		if t == circuit.Nand || t == circuit.Nor {
			v = swapRails(v)
		}
	case circuit.Xor, circuit.Xnor:
		for _, fi := range fanin[1:] {
			x := val[fi]
			differ := v & swapRails(x) // v is 1 and x is 0, or v is 0 and x is 1
			same := v & x
			v = (differ|differ>>1)&ones | (same|same>>1)&ones<<1
		}
		if t == circuit.Xnor {
			v = swapRails(v)
		}
	default:
		panic("atpg: packed eval of non-combinational gate type")
	}
	return v
}

// packV3 returns the packed value with both machines at v.
func packV3(v logic.V3) uint8 {
	switch v {
	case logic.One:
		return ones
	case logic.Zero:
		return zeros
	}
	return 0
}

var railV3 = [4]logic.V3{logic.X, logic.One, logic.Zero, logic.X}

// goodV3 and badV3 unpack one machine of a packed value.
func goodV3(v uint8) logic.V3 { return railV3[v&goodRails] }
func badV3(v uint8) logic.V3  { return railV3[v>>2&3] }

// isEffect reports whether both machines are binary and differ.
func isEffect(v uint8) bool { return v == good1|bad0 || v == good0|bad1 }

// hasX reports whether either machine is X.
func hasX(v uint8) bool { return v&goodRails == 0 || v&badRails == 0 }

// Event-driven implication with an undo trail.
//
// Three-valued forward implication is monotone along one decision
// path: assigning a PI can only turn X lines binary, never flip a
// binary line. Each gate therefore changes at most once per
// assignment, so propagating assignments as events through a
// level-ordered queue touches only the affected cone instead of
// re-simulating the whole netlist — the difference between O(cone)
// and O(|C|) per decision dominates ATPG run time on the larger
// benchmarks. Undo is a value trail: every change is recorded and
// rolled back exactly to the decision mark on backtrack.

// trailEntry records one gate's packed value before a change.
type trailEntry struct {
	gate int32
	old  uint8
}

// setTarget installs fault f: the stuck value is forced on the faulty
// rails of the site (a stem fault) or of the site pin (a branch fault).
// A faulty branch is an extra line, the last entry of val, that the
// site reads on that pin instead of the driver.
func (g *Generator) setTarget(f fault.Fault) {
	g.target = f
	g.stuck = bad0
	if f.SA != 0 {
		g.stuck = bad1
	}
	g.stemGate, g.branchGate = -1, -1
	if f.Pin == fault.StemPin {
		g.stemGate = int32(f.Gate)
		return
	}
	g.branchGate = int32(f.Gate)
	g.branchFanin = append(g.branchFanin[:0], g.cc.GateFanin(f.Gate)...)
	g.branchFanin[f.Pin] = int32(len(g.val) - 1)
}

// resetImplication initializes both machines for a fresh fault: all
// lines X except the faulty machine's stuck line.
func (g *Generator) resetImplication() {
	clear(g.val)
	if g.stemGate >= 0 {
		g.val[g.stemGate] = g.stuck
	} else {
		// No input is assigned yet, but a controlling stuck value on
		// the branch already determines the sink's faulty value.
		g.val[g.branchGate] = g.eval(g.branchGate)
	}
	g.trail = g.trail[:0]
}

// assign sets primary input index to v and propagates. It returns the
// trail mark to pass to undoTo when the decision is retracted.
func (g *Generator) assign(input int, v logic.V3) int {
	mark := len(g.trail)
	g.pi[input] = v
	gate := g.cc.Inputs[input]
	nv := packV3(v)
	if gate == g.stemGate {
		nv = nv&goodRails | g.stuck
	}
	g.setAndEnqueue(gate, nv)
	g.propagateEvents()
	return mark
}

// undoTo rolls the value state back to a trail mark and clears the PI
// assignment of the retracted decision (done by the caller).
func (g *Generator) undoTo(mark int) {
	for i := len(g.trail) - 1; i >= mark; i-- {
		e := g.trail[i]
		g.val[e.gate] = e.old
	}
	g.trail = g.trail[:mark]
}

// setAndEnqueue records the old value of gate, installs the new one
// and queues its fanout for re-evaluation. A fanout gate whose machines
// are both binary is left out: implication only ever refines X to a
// binary value, so re-evaluating it would reproduce its value.
func (g *Generator) setAndEnqueue(gate int32, nv uint8) {
	old := g.val[gate]
	if old == nv {
		return
	}
	g.trail = append(g.trail, trailEntry{gate: gate, old: old})
	g.val[gate] = nv
	cc := g.cc
	for _, fo := range cc.Fanout[cc.FanoutStart[gate]:cc.FanoutStart[gate+1]] {
		if g.qmark[fo] == g.epoch || !hasX(g.val[fo]) {
			continue
		}
		g.qmark[fo] = g.epoch
		lvl := cc.Level[fo]
		g.buckets[lvl] = append(g.buckets[lvl], fo)
		g.qlo = min(g.qlo, lvl)
		g.qhi = max(g.qhi, lvl)
	}
}

// propagateEvents drains the level-ordered queue from its lowest
// level, re-evaluating each queued gate once. Fanout sits at strictly
// higher levels, so a level's bucket is complete when the walk reaches
// it.
func (g *Generator) propagateEvents() {
	for lvl := g.qlo; lvl <= g.qhi; lvl++ {
		bucket := g.buckets[lvl]
		for _, gate := range bucket {
			g.setAndEnqueue(gate, g.eval(gate))
		}
		g.buckets[lvl] = bucket[:0]
	}
	g.qlo, g.qhi = int32(g.cc.MaxLevel+1), -1
	g.epoch++
}

// eval computes gate's packed value from its fanin, with the target
// fault's stuck value forced on its site.
func (g *Generator) eval(gate int32) uint8 {
	fanin := g.cc.GateFanin(int(gate))
	if gate == g.branchGate {
		fanin = g.branchFanin
		g.val[len(g.val)-1] = g.val[g.siteLine()]&goodRails | g.stuck
	}
	v := evalPacked(g.cc.Type[gate], fanin, g.val)
	if gate == g.stemGate {
		v = v&goodRails | g.stuck
	}
	return v
}
