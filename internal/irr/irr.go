// Package irr makes circuits irredundant, mirroring the preprocessing
// the paper applies to its benchmarks ("we consider irredundant
// versions of their combinational logic, referred to as ircirc",
// Section 4).
//
// The classic transformation is used: if line L stuck-at-v is
// undetectable, the circuit computes the same function with L replaced
// by the constant v. The pass therefore alternates
//
//  1. classify every collapsed fault with the PODEM generator, one
//     generator per core (runtime.GOMAXPROCS),
//  2. replace the lines of undetectable faults with constants,
//  3. propagate the constants (gate simplification) and prune logic
//     that no longer reaches an output,
//
// until no undetectable fault remains or the iteration budget is
// exhausted. Undetectable faults are applied in batch per iteration;
// batch application of interacting redundancies may perturb the
// circuit function, which is acceptable here — the suite circuits are
// synthetic stand-ins, and what the experiments require is a valid
// *irredundant* netlist, which the fixpoint iteration guarantees.
package irr

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/eda-go/adifo/internal/atpg"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// Options bounds the pass.
type Options struct {
	// MaxIters bounds the classify/rewrite iterations (default 25).
	MaxIters int
	// BacktrackLimit is handed to the ATPG (0 = its default). Faults
	// aborted by the ATPG are conservatively treated as detectable.
	BacktrackLimit int
}

// Stats reports what the pass did.
type Stats struct {
	// Iterations actually executed.
	Iterations int
	// RedundantRemoved counts the undetectable faults whose lines
	// were constant-replaced, summed over iterations.
	RedundantRemoved int
	// GatesBefore/GatesAfter are logic gate counts (PIs excluded).
	GatesBefore, GatesAfter int
	// Clean reports whether the final circuit was verified to have no
	// undetectable collapsed fault. It is false only when MaxIters ran
	// out or the ATPG aborted on some fault in the final iteration, the
	// one that found no redundancy; an abort in an earlier iteration
	// is followed by another classification of the rewritten circuit.
	Clean bool
}

// Make returns an irredundant version of c together with pass
// statistics. The input circuit is not modified. An error is returned
// only when the circuit degenerates (every output constant). The
// PODEM proofs run on runtime.GOMAXPROCS(0) generators; the result
// does not depend on that number.
func Make(c *circuit.Circuit, opts Options) (*circuit.Circuit, Stats, error) {
	if opts.MaxIters <= 0 {
		opts.MaxIters = 25
	}
	if opts.BacktrackLimit <= 0 {
		// Redundancy proofs must exhaust the decision tree, which can
		// take far more backtracks than finding a test; the default
		// ATPG budget regularly aborts on random-resistant redundant
		// faults and would leave the circuit unclean. The budget is a
		// compromise: large enough to settle almost every fault on
		// the suite, small enough that a pathological proof cannot
		// stall the pass (a fault it cannot settle is conservatively
		// kept, reported via Stats.Clean=false).
		opts.BacktrackLimit = 10000
	}
	st := Stats{GatesBefore: c.ComputeStats().Gates}

	cur := c
	for iter := 0; iter < opts.MaxIters; iter++ {
		st.Iterations = iter + 1
		redundant, aborted := classify(cur, opts.BacktrackLimit, runtime.GOMAXPROCS(0))
		if len(redundant) == 0 {
			st.Clean = !aborted
			break
		}
		st.RedundantRemoved += len(redundant)
		next, err := applyConstants(cur, redundant)
		if err != nil {
			return nil, st, err
		}
		cur = next
	}
	st.GatesAfter = cur.ComputeStats().Gates
	return cur, st, nil
}

// classify returns the undetectable collapsed faults of c in fault
// order, plus whether the ATPG aborted on any fault. Random-pattern
// fault simulation prefilters the universe — a fault detected by
// simulation is trivially not redundant — so the expensive PODEM proof
// runs only on the small random-resistant remainder.
//
// The proofs are split by fault over up to workers PODEM generators
// on the shared compiled form (fault-partitioned parallel ATPG, Patil
// and Banerjee, ITC 1989). Each worker takes the next fault from an
// atomic cursor and stores its verdict at the fault's position. A
// verdict depends only on the netlist and the fault, since Generate
// resets all of its state per fault, so the result is the same for
// every worker count.
func classify(c *circuit.Circuit, backtrackLimit, workers int) ([]fault.Fault, bool) {
	cc := circuit.Compile(c)
	todo := prefilter(c, cc)
	if len(todo) == 0 {
		return nil, false
	}

	status := make([]atpg.Status, len(todo))
	var next atomic.Int64
	prove := func() {
		g := atpg.New(cc, atpg.Options{BacktrackLimit: backtrackLimit})
		for {
			i := int(next.Add(1)) - 1
			if i >= len(todo) {
				return
			}
			status[i] = g.Generate(todo[i]).Status
		}
	}
	// The caller is the first worker, so one worker starts no goroutine.
	var wg sync.WaitGroup
	for range min(workers, len(todo)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prove()
		}()
	}
	prove()
	wg.Wait()

	var redundant []fault.Fault
	aborted := false
	for i, st := range status {
		switch st {
		case atpg.Redundant:
			redundant = append(redundant, todo[i])
		case atpg.Aborted:
			aborted = true
		}
	}
	return redundant, aborted
}

// prefilter returns, in fault order, the collapsed faults of c that
// random-pattern simulation on cc leaves undetected.
func prefilter(c *circuit.Circuit, cc *circuit.Compiled) []fault.Fault {
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), prefilterPatterns, prng.New(prefilterSeed))
	// One sequential worker, the same pass as fsim.Run on cc: the
	// prefilter is a small share of classify, and the parallel
	// runner's equal split by fault count leaves a second worker
	// almost idle on one netlist.
	res := fsim.RunParallelWith(fl, ps, fsim.ParallelOptions{
		Options: fsim.Options{Mode: fsim.Drop}, Workers: 1, Compiled: cc,
	})
	var undetected []fault.Fault
	for fi, f := range fl.Faults {
		if !res.Detected(fi) {
			undetected = append(undetected, f)
		}
	}
	return undetected
}

const (
	// prefilterPatterns is the random-simulation budget used to screen
	// obviously detectable faults before invoking the ATPG. Simulation
	// is orders of magnitude cheaper than a PODEM proof, so a generous
	// budget pays for itself by shrinking the ATPG workload.
	prefilterPatterns = 16384
	// prefilterSeed fixes the screening patterns; the final result is
	// seed-independent (the ATPG is the arbiter), the seed only
	// affects how much work the ATPG is left with.
	prefilterSeed = 0x1bd4
)

// constUnknown marks a line with no constant forced on it.
const constUnknown = int8(-1)

// applyConstants rewrites c with each redundant fault's line tied to
// its stuck value, simplifies, and prunes dead logic.
func applyConstants(c *circuit.Circuit, redundant []fault.Fault) (*circuit.Circuit, error) {
	n := c.NumGates()
	stemConst := make([]int8, n)
	for i := range stemConst {
		stemConst[i] = constUnknown
	}
	branchConst := make(map[circuit.Conn]int8)
	for _, f := range redundant {
		if f.Pin == fault.StemPin {
			if stemConst[f.Gate] == constUnknown {
				stemConst[f.Gate] = int8(f.SA)
			}
			// Both polarities redundant: the line is entirely
			// unobservable; either constant is valid, keep the first.
		} else {
			conn := circuit.Conn{Gate: f.Gate, Pin: f.Pin}
			if _, dup := branchConst[conn]; !dup {
				branchConst[conn] = int8(f.SA)
			}
		}
	}

	// Forward simplification. For every original gate we compute
	// either a constant value or a simplified (type, live fanin)
	// form referring to original gate ids.
	type simp struct {
		isConst bool
		val     int8
		typ     circuit.GateType
		fanin   []int
	}
	out := make([]simp, n)

	for _, gi := range c.Topo {
		g := &c.Gates[gi]
		if g.Type == circuit.PI {
			if stemConst[gi] != constUnknown {
				out[gi] = simp{isConst: true, val: stemConst[gi]}
			} else {
				out[gi] = simp{typ: circuit.PI}
			}
			continue
		}
		// Effective inputs after branch and upstream stem constants.
		var live []int
		var consts []int8
		for pin, drv := range g.Fanin {
			if v, ok := branchConst[circuit.Conn{Gate: gi, Pin: pin}]; ok {
				consts = append(consts, v)
				continue
			}
			if out[drv].isConst {
				consts = append(consts, out[drv].val)
				continue
			}
			live = append(live, drv)
		}
		s := simplifyGate(g.Type, live, consts)
		if stemConst[gi] != constUnknown {
			// The stem constant dominates whatever the gate computes.
			s = simp{isConst: true, val: stemConst[gi]}
		}
		out[gi] = simp{isConst: s.isConst, val: s.val, typ: s.typ, fanin: s.fanin}
	}

	// Live outputs.
	var liveOutputs []int
	for _, o := range c.Outputs {
		if !out[o].isConst {
			liveOutputs = append(liveOutputs, o)
		}
	}
	if len(liveOutputs) == 0 {
		return nil, fmt.Errorf("irr: circuit %q degenerated to constants", c.Name)
	}

	// Reachability from live outputs through live fanins.
	keep := make([]bool, n)
	stack := append([]int(nil), liveOutputs...)
	for len(stack) > 0 {
		gi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if keep[gi] {
			continue
		}
		keep[gi] = true
		for _, f := range out[gi].fanin {
			if !keep[f] {
				stack = append(stack, f)
			}
		}
	}

	// Rebuild from the kept gates only. A primary input survives only
	// if some live output still reaches it: a constant input is not an
	// input, and a floating one would reintroduce undetectable stem
	// faults, so both are dropped together with their names. On the
	// suite this happens to irs382 and irs400, which each lose one
	// input (pinned by TestMakeOnGeneratedSuite).
	nb := circuit.NewBuilder(c.Name)
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	for _, gi := range c.Topo {
		if !keep[gi] {
			continue
		}
		s := out[gi]
		if s.typ == circuit.PI {
			remap[gi] = nb.AddInput(c.Gates[gi].Name)
			continue
		}
		fanin := make([]int, len(s.fanin))
		for k, f := range s.fanin {
			if remap[f] < 0 {
				return nil, fmt.Errorf("irr: internal error: gate %q uses pruned fanin", c.Gates[gi].Name)
			}
			fanin[k] = remap[f]
		}
		remap[gi] = nb.AddGate(c.Gates[gi].Name, s.typ, fanin...)
	}
	for _, o := range liveOutputs {
		nb.MarkOutput(remap[o])
	}
	return nb.Freeze()
}

// simplifyGate folds constant inputs into the gate function. live
// holds the original ids of non-constant fanins; consts the constant
// input values. It returns either a constant or a (possibly
// retyped) gate over the live fanins.
func simplifyGate(t circuit.GateType, live []int, consts []int8) (s struct {
	isConst bool
	val     int8
	typ     circuit.GateType
	fanin   []int
}) {
	gate := func(ty circuit.GateType, fanin []int) {
		s.typ, s.fanin = ty, fanin
	}
	constant := func(v int8) {
		s.isConst, s.val = true, v
	}

	switch t {
	case circuit.Buf, circuit.Not:
		inv := t == circuit.Not
		if len(consts) == 1 {
			v := consts[0]
			if inv {
				v = 1 - v
			}
			constant(v)
			return
		}
		gate(t, live)
		return

	case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
		andLike := t == circuit.And || t == circuit.Nand
		inverted := t == circuit.Nand || t == circuit.Nor
		ctrl := int8(0) // controlling constant for AND-like
		if !andLike {
			ctrl = 1
		}
		for _, v := range consts {
			if v == ctrl {
				outv := ctrl
				if inverted {
					outv = 1 - outv
				}
				constant(outv)
				return
			}
		}
		// Remaining constants are all non-controlling: drop them.
		switch len(live) {
		case 0:
			// Identity element result: AND()→1, OR()→0, inverted for
			// NAND/NOR.
			outv := int8(1)
			if !andLike {
				outv = 0
			}
			if inverted {
				outv = 1 - outv
			}
			constant(outv)
		case 1:
			if inverted {
				gate(circuit.Not, live)
			} else {
				gate(circuit.Buf, live)
			}
		default:
			gate(t, live)
		}
		return

	case circuit.Xor, circuit.Xnor:
		parity := int8(0)
		if t == circuit.Xnor {
			parity = 1
		}
		for _, v := range consts {
			parity ^= v
		}
		switch len(live) {
		case 0:
			constant(parity)
		case 1:
			if parity == 1 {
				gate(circuit.Not, live)
			} else {
				gate(circuit.Buf, live)
			}
		default:
			if parity == 1 {
				gate(circuit.Xnor, live)
			} else {
				gate(circuit.Xor, live)
			}
		}
		return
	}
	panic(fmt.Sprintf("irr: simplify %v", t))
}
