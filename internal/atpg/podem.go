// Package atpg implements a PODEM (path-oriented decision making)
// test generator for single stuck-at faults in combinational
// circuits.
//
// The generator deliberately contains no dynamic compaction heuristics
// — no secondary target faults, no test merging — matching the
// experimental setup of the paper ("The test generation procedure we
// use does not include any dynamic compaction heuristics", Section 4).
// Compaction comes only from the order in which faults are targeted
// and from dropping faults detected by simulation of earlier tests;
// both live outside this package.
//
// # Algorithm
//
// Classic PODEM: decisions are made only on primary inputs. The search
// keeps two three-valued value assignments, the good machine and the
// faulty machine (with the target fault's line forced to its stuck
// value), maintained by event-driven forward implication with an undo
// trail (see imply.go). Both machines of a line share one byte, two
// rails each, so one packed gate evaluation implies both; every walk
// reads the CSR arrays of the compiled circuit form. Objectives
// alternate between fault activation (set the fault site to the
// complement of the stuck value) and fault-effect propagation (advance
// the D-frontier); objectives are mapped to input assignments by
// backtracing along X-valued lines using SCOAP controllability to pick
// easy/hard branches. A backtrack limit bounds the search: exceeding it
// classifies the fault as aborted, exhausting the decision tree
// classifies it as redundant (undetectable).
//
// The per-decision checks are incremental: fault effects can only
// live in the fanout cone of the fault site, so detection and
// D-frontier discovery walk the effect region instead of scanning the
// netlist, and the X-path check walks only composite-X gates.
package atpg

import (
	"fmt"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// Status classifies the outcome of one test generation attempt.
type Status int

const (
	// Success: a test cube detecting the fault was found.
	Success Status = iota
	// Redundant: the decision tree was exhausted; the fault is
	// undetectable.
	Redundant
	// Aborted: the backtrack limit was exceeded before a test was
	// found or the fault was proven redundant.
	Aborted
)

// String returns a short lower-case label.
func (s Status) String() string {
	switch s {
	case Success:
		return "success"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Options configures a Generator.
type Options struct {
	// BacktrackLimit bounds the search per fault; 0 selects
	// DefaultBacktrackLimit.
	BacktrackLimit int
}

// DefaultBacktrackLimit is the per-fault backtrack budget used when
// Options.BacktrackLimit is zero. The value matches the order of
// magnitude customary for combinational ATPG on the ISCAS benchmarks.
const DefaultBacktrackLimit = 1000

// Result is the outcome of one Generate call.
type Result struct {
	Status Status
	// Cube is the generated test cube over primary inputs (in
	// circuit.Inputs order): Zero, One, or X for inputs the search
	// left unassigned. Valid only when Status == Success.
	Cube []logic.V3
	// Backtracks is the number of backtracks consumed.
	Backtracks int
	// Decisions is the number of PI decisions made.
	Decisions int
}

// Generator generates tests for faults of one circuit. It is reusable
// across faults (state is reset per Generate) but not safe for
// concurrent use.
type Generator struct {
	cc      *circuit.Compiled
	ctl     *circuit.Controllability
	piIndex []int32 // PI gate id -> position in cc.Inputs; -1 for other gates
	opts    Options

	// val holds the packed good and faulty value of every gate
	// (imply.go), plus one extra line for a faulty branch.
	val []uint8
	pi  []logic.V3 // current PI assignment

	// The target fault and where its stuck value is forced: stemGate
	// (a stem fault) or pin target.Pin of branchGate (a branch fault);
	// the other is -1. stuck is the forced faulty rail. branchFanin is
	// the fanin of branchGate with the faulty pin reading the extra
	// line.
	target               fault.Fault
	stemGate, branchGate int32
	stuck                uint8
	branchFanin          []int32

	// implication machinery (imply.go): per-level event buckets, the
	// queued level range, and per-wave queue marks
	trail    []trailEntry
	buckets  [][]int32
	qlo, qhi int32
	qmark    []uint32
	epoch    uint32

	// effect-region / X-path / faulty-X-source scratch
	emark    []uint32
	eepoch   uint32
	estack   []int32
	frontier []int32

	stack []decision
}

type decision struct {
	input     int // index into circuit.Inputs
	value     logic.V3
	triedBoth bool
	mark      int // trail mark taken before the assignment
}

// New returns a Generator for the compiled circuit cc.
func New(cc *circuit.Compiled, opts Options) *Generator {
	if opts.BacktrackLimit <= 0 {
		opts.BacktrackLimit = DefaultBacktrackLimit
	}
	n := cc.NumGates()
	piIndex := make([]int32, n)
	for i := range piIndex {
		piIndex[i] = -1
	}
	for i, gate := range cc.Inputs {
		piIndex[gate] = int32(i)
	}
	return &Generator{
		cc:      cc,
		ctl:     cc.Circuit.ComputeControllability(),
		piIndex: piIndex,
		opts:    opts,
		val:     make([]uint8, n+1),
		pi:      make([]logic.V3, cc.NumInputs()),
		buckets: make([][]int32, cc.MaxLevel+1),
		qlo:     int32(cc.MaxLevel + 1),
		qhi:     -1,
		qmark:   make([]uint32, n),
		emark:   make([]uint32, n),
		epoch:   1,
		eepoch:  1,
	}
}

// Generate runs PODEM for fault f and returns the outcome.
func (g *Generator) Generate(f fault.Fault) Result {
	g.setTarget(f)
	for i := range g.pi {
		g.pi[i] = logic.X
	}
	g.stack = g.stack[:0]
	g.resetImplication()

	res := Result{}
	for {
		detected, frontier := g.exploreEffects()
		if detected {
			res.Status = Success
			res.Cube = append([]logic.V3(nil), g.pi...)
			return res
		}
		dead := false
		site := g.goodSiteValue()
		want := logic.FromBit(g.target.SA).Not()
		if site.IsBinary() {
			if site != want {
				dead = true // fault can no longer be activated
			} else if len(frontier) == 0 || !g.xPathExists(frontier) {
				dead = true // activated but unpropagatable
			}
		}
		if !dead {
			obj, ok := g.objective(frontier)
			if ok {
				input, val := g.backtrace(obj)
				mark := g.assign(input, val)
				g.stack = append(g.stack, decision{input: input, value: val, mark: mark})
				res.Decisions++
				continue
			}
			dead = true
		}
		if !g.backtrack(&res) {
			return res
		}
	}
}

// backtrack flips the most recent un-flipped decision. It returns
// false when the search is finished (res.Status set to Redundant or
// Aborted).
func (g *Generator) backtrack(res *Result) bool {
	res.Backtracks++
	if res.Backtracks > g.opts.BacktrackLimit {
		res.Status = Aborted
		return false
	}
	for len(g.stack) > 0 {
		top := &g.stack[len(g.stack)-1]
		g.undoTo(top.mark)
		if !top.triedBoth {
			top.triedBoth = true
			top.value = top.value.Not()
			g.assign(top.input, top.value)
			return true
		}
		g.pi[top.input] = logic.X
		g.stack = g.stack[:len(g.stack)-1]
	}
	res.Status = Redundant
	return false
}

// siteLine returns the gate driving the faulty line: the site itself
// for a stem fault, the driver of the faulty pin for a branch fault.
func (g *Generator) siteLine() int32 {
	if g.stemGate >= 0 {
		return g.stemGate
	}
	return g.cc.Fanin[g.cc.FaninStart[g.branchGate]+int32(g.target.Pin)]
}

// goodSiteValue returns the good-machine value of the faulty line.
func (g *Generator) goodSiteValue() logic.V3 {
	return goodV3(g.val[g.siteLine()])
}

// exploreEffects walks the fault-effect region (lines whose good and
// faulty values are binary and differ — necessarily inside the fault
// site's fanout cone) and returns whether an effect has reached an
// observed output, together with the D-frontier: gates fed by an
// effect line whose own composite output is still X.
//
// The frontier aliases scratch storage that the next call reuses.
func (g *Generator) exploreEffects() (detected bool, frontier []int32) {
	cc := g.cc
	g.eepoch++
	g.estack = g.estack[:0]
	frontier = g.frontier[:0]

	// Seed the region at the fault site.
	site := int32(g.target.Gate)
	if isEffect(g.val[site]) {
		g.emark[site] = g.eepoch
		g.estack = append(g.estack, site)
	} else if g.branchGate >= 0 {
		// Branch fault: the effect lives on the faulted branch, which
		// is invisible in the driver's line values. The branch
		// carries an effect iff the good value of the driver is the
		// complement of the stuck value; the sink gate is then a
		// D-frontier candidate when its composite output is X.
		if goodV3(g.val[g.siteLine()]) == logic.FromBit(g.target.SA).Not() && hasX(g.val[site]) {
			frontier = append(frontier, site)
		}
	}

	for len(g.estack) > 0 {
		gate := g.estack[len(g.estack)-1]
		g.estack = g.estack[:len(g.estack)-1]
		if cc.Output[gate] {
			return true, nil
		}
		for _, y := range cc.Fanout[cc.FanoutStart[gate]:cc.FanoutStart[gate+1]] {
			if g.emark[y] == g.eepoch {
				continue
			}
			g.emark[y] = g.eepoch
			if isEffect(g.val[y]) {
				g.estack = append(g.estack, y)
			} else if hasX(g.val[y]) {
				frontier = append(frontier, y)
			}
		}
	}
	g.frontier = frontier
	return false, frontier
}

// objective returns the next (gate, value) objective: activate the
// fault if not yet activated, otherwise advance the D-frontier.
func (g *Generator) objective(frontier []int32) (obj objective, ok bool) {
	cc := g.cc
	if g.goodSiteValue() == logic.X {
		return objective{gate: g.siteLine(), value: logic.FromBit(g.target.SA).Not()}, true
	}

	// Propagation: pick the D-frontier gate closest to an output
	// (deepest level in a levelized DAG), then require a
	// non-controlling value on one of its X inputs.
	best := int32(-1)
	for _, gi := range frontier {
		if best < 0 || cc.Level[gi] > cc.Level[best] {
			best = gi
		}
	}
	if best < 0 {
		return objective{}, false
	}
	fanin := cc.GateFanin(int(best))
	cv, hasCV := cc.Type[best].ControllingValue()
	for _, fi := range fanin {
		if goodV3(g.val[fi]) != logic.X {
			continue
		}
		var v logic.V3
		if hasCV {
			v = cv.Not()
		} else {
			// XOR family: either value propagates; choose the cheaper
			// one by controllability.
			if g.ctl.CC0[fi] <= g.ctl.CC1[fi] {
				v = logic.Zero
			} else {
				v = logic.One
			}
		}
		return objective{gate: fi, value: v}, true
	}
	// Reconvergence case: every input of the frontier gate is binary
	// in the good machine, but some input is still X in the faulty
	// machine (its faulty value depends on an unassigned PI through
	// the fault cone). Target such a PI directly — without this the
	// search would wrongly declare a dead end and lose completeness.
	for _, fi := range fanin {
		if badV3(g.val[fi]) != logic.X {
			continue
		}
		g.eepoch++
		if pi, ok := g.faultyXSource(fi); ok {
			val := logic.One
			if g.ctl.CC0[pi] <= g.ctl.CC1[pi] {
				val = logic.Zero
			}
			return objective{gate: pi, value: val}, true
		}
	}
	return objective{}, false
}

type objective struct {
	gate  int32
	value logic.V3
}

// faultyXSource walks backwards from gate x through faulty-machine X
// lines, depth first in pin order, and returns an unassigned primary
// input that the X depends on. The caller starts a fresh walk by
// advancing eepoch.
func (g *Generator) faultyXSource(x int32) (int32, bool) {
	if g.emark[x] == g.eepoch {
		return 0, false
	}
	g.emark[x] = g.eepoch
	if g.cc.Type[x] == circuit.PI {
		return x, goodV3(g.val[x]) == logic.X
	}
	for _, fi := range g.cc.GateFanin(int(x)) {
		if badV3(g.val[fi]) != logic.X {
			continue
		}
		if pi, ok := g.faultyXSource(fi); ok {
			return pi, true
		}
	}
	return 0, false
}

// xPathExists reports whether some fault effect can still reach an
// output through composite-X lines, starting from the D-frontier.
func (g *Generator) xPathExists(frontier []int32) bool {
	cc := g.cc
	g.eepoch++
	g.estack = g.estack[:0]
	for _, gi := range frontier {
		if g.emark[gi] != g.eepoch {
			g.emark[gi] = g.eepoch
			g.estack = append(g.estack, gi)
		}
	}
	for len(g.estack) > 0 {
		gi := g.estack[len(g.estack)-1]
		g.estack = g.estack[:len(g.estack)-1]
		if cc.Output[gi] {
			return true
		}
		for _, ng := range cc.Fanout[cc.FanoutStart[gi]:cc.FanoutStart[gi+1]] {
			if g.emark[ng] == g.eepoch || !hasX(g.val[ng]) {
				continue
			}
			g.emark[ng] = g.eepoch
			g.estack = append(g.estack, ng)
		}
	}
	return false
}

// backtrace maps an objective to an unassigned primary input and a
// value, walking backwards along X lines.
func (g *Generator) backtrace(obj objective) (input int, val logic.V3) {
	cc := g.cc
	gate, v := obj.gate, obj.value
	for {
		t := cc.Type[gate]
		fanin := cc.GateFanin(int(gate))
		switch t {
		case circuit.PI:
			return int(g.piIndex[gate]), v
		case circuit.Buf:
			gate = fanin[0]
		case circuit.Not:
			gate, v = fanin[0], v.Not()
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			need := v
			if t.Inverting() {
				need = v.Not()
			}
			// For AND: need==1 means all inputs 1 (hard), need==0
			// means one input 0 (easy). Symmetric for OR.
			var allMust bool
			switch t {
			case circuit.And, circuit.Nand:
				allMust = need == logic.One
			case circuit.Or, circuit.Nor:
				allMust = need == logic.Zero
			}
			gate, v = g.chooseInput(fanin, need, allMust), need
		case circuit.Xor, circuit.Xnor:
			need := v
			if t.Inverting() {
				need = v.Not()
			}
			// Choose the cheapest X input; its required value is the
			// parity completing the other inputs (X siblings counted
			// as 0 — a heuristic, corrected by implication).
			pick := int32(-1)
			parity := logic.Zero
			for _, fi := range fanin {
				if gv := goodV3(g.val[fi]); gv == logic.X {
					if pick < 0 || minCC(g.ctl, fi) < minCC(g.ctl, pick) {
						pick = fi
					}
				} else {
					parity = logic.Xor3(parity, gv)
				}
			}
			if pick < 0 {
				// No X input left; fall back to the first fanin to
				// keep the walk moving (implication will expose the
				// conflict).
				pick = fanin[0]
			}
			if parity == logic.X {
				parity = logic.Zero
			}
			gate, v = pick, logic.Xor3(need, parity)
		default:
			panic(fmt.Sprintf("atpg: backtrace through %v", t))
		}
	}
}

// chooseInput picks an X-valued gate of fanin: the hardest to set to
// val when every input must take the value (allMust), the easiest
// otherwise.
func (g *Generator) chooseInput(fanin []int32, val logic.V3, allMust bool) int32 {
	best, bestCost := int32(-1), 0
	for _, fi := range fanin {
		if goodV3(g.val[fi]) != logic.X {
			continue
		}
		cost := g.ctl.CC1[fi]
		if val == logic.Zero {
			cost = g.ctl.CC0[fi]
		}
		if best < 0 || (allMust && cost > bestCost) || (!allMust && cost < bestCost) {
			best, bestCost = fi, cost
		}
	}
	if best < 0 {
		// All inputs assigned: keep walking through the first fanin;
		// the conflict, if any, surfaces via implication.
		return fanin[0]
	}
	return best
}

func minCC(ctl *circuit.Controllability, g int32) int {
	return min(ctl.CC0[g], ctl.CC1[g])
}

// FillRandom completes a test cube into a fully specified vector,
// assigning every X a pseudo-random bit from src. The specified bits
// are preserved.
func FillRandom(cube []logic.V3, src *prng.Source) logic.Vector {
	v := make(logic.Vector, len(cube))
	for i, val := range cube {
		switch val {
		case logic.Zero:
			v[i] = 0
		case logic.One:
			v[i] = 1
		default:
			v[i] = uint8(src.Intn(2))
		}
	}
	return v
}
