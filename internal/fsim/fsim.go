// Package fsim implements good-machine and stuck-at fault simulation
// using PPSFP (parallel-pattern single-fault propagation): good-machine
// values are computed once per pattern block, then each fault is
// injected in turn and only its fanout cone is re-evaluated, level by
// level. One kernel (kernel.go) does all of it on the compiled circuit
// form (circuit.Compile), width-generic over the block types in
// internal/circuit: the sequential reference Run, the Incremental
// simulator and the cached Good values use scalar 64-pattern blocks,
// the parallel runner picks 64-, 256- or 512-pattern blocks.
//
// Three modes cover everything the paper needs:
//
//   - no-drop simulation produces, for every fault f, the detection
//     set D(f) and, for every vector u, the count ndet(u) — the raw
//     material of the accidental detection index (Section 2);
//   - drop mode removes a fault at its first detection and is used to
//     size the random vector set U (simulate until ~90% coverage);
//   - n-detect mode drops a fault at its n-th detection, the cheaper
//     ndet estimator the paper mentions as an alternative.
//
// An Incremental simulator supports the ATPG flow: vectors arrive one
// at a time and every fault detected by the new vector is dropped.
package fsim

import (
	"fmt"
	"math/bits"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/logic"
)

// Mode selects the dropping policy of a batch simulation run.
type Mode int

const (
	// NoDrop simulates every fault against every vector and records
	// complete detection sets D(f) and per-vector counts ndet(u).
	// This is the mode the ADI computation requires (Section 2 of the
	// paper).
	NoDrop Mode = iota
	// Drop removes a fault from consideration at its first detection.
	Drop
	// NDetect removes a fault after its n-th detection (set Options.N);
	// ndet(u) then counts only pre-drop detections, which is the
	// cheaper estimate the paper mentions as an alternative to full
	// no-drop simulation.
	NDetect
)

// String returns the canonical lower-case mode name used by the CLI
// flags and the service wire format.
func (m Mode) String() string {
	switch m {
	case NoDrop:
		return "nodrop"
	case Drop:
		return "drop"
	case NDetect:
		return "ndetect"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode maps a mode name (as produced by Mode.String) back to its
// Mode value. The empty string is rejected: defaulting is an API-layer
// decision (the adifo facade defaults to NoDrop via its option zero
// value, the service requires an explicit mode on the wire), not a
// parsing rule.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "nodrop":
		return NoDrop, nil
	case "drop":
		return Drop, nil
	case "ndetect":
		return NDetect, nil
	}
	return 0, fmt.Errorf("fsim: unknown mode %q (want nodrop, drop or ndetect)", name)
}

// Options configures a batch run.
type Options struct {
	Mode Mode
	// N is the detection count at which NDetect mode drops a fault.
	N int
	// StopAtCoverage, when positive (e.g. 0.90), stops the run after
	// the first block in which total fault coverage reaches the
	// threshold. Used to size the random vector set U.
	StopAtCoverage float64
}

// Result holds everything a batch simulation learned.
type Result struct {
	List *fault.List

	// VectorsUsed is the number of vectors actually simulated (may be
	// less than the pattern set size when StopAtCoverage triggers;
	// always a multiple of 64 in that case, except on the last block).
	VectorsUsed int

	// DetCount[f] is the number of simulated vectors that detect
	// fault f (subject to the dropping policy).
	DetCount []int

	// FirstDet[f] is the index of the first vector that detects f, or
	// -1 if f was never detected.
	FirstDet []int

	// Ndet[u] is the number of faults detected by vector u (subject
	// to the dropping policy; in NoDrop mode this is the paper's
	// ndet(u)).
	Ndet []int

	// Det[f] is the detection set D(f) as a bitset over vector
	// indices. Populated in NoDrop mode and, truncated to the first n
	// detections per fault, in NDetect mode; nil in Drop mode, which
	// does not need it (the bitsets dominate memory on large runs).
	Det []*logic.Bitset
}

// Detected reports whether fault f was detected at least once.
func (r *Result) Detected(f int) bool { return r.FirstDet[f] >= 0 }

// DetectedCount returns the number of faults detected at least once.
func (r *Result) DetectedCount() int {
	n := 0
	for _, fd := range r.FirstDet {
		if fd >= 0 {
			n++
		}
	}
	return n
}

// Coverage returns the fraction of faults detected at least once.
func (r *Result) Coverage() float64 {
	if r.List.Len() == 0 {
		return 0
	}
	return float64(r.DetectedCount()) / float64(r.List.Len())
}

// Run simulates every fault of fl against the vectors of ps under the
// given options and returns the collected statistics.
//
// Run is the bit-identity reference for the whole simulator core: it
// always executes the scalar 64-pattern kernel in fault-index order,
// and every parallel/wide configuration must reproduce its result
// exactly. Only tests and perfbench call it, as that reference; the
// library simulates with RunParallelWith or RunParallelCtx.
func Run(fl *fault.List, ps *logic.PatternSet, opts Options) *Result {
	c := fl.Circuit
	if ps.Inputs() != c.NumInputs() {
		panic(fmt.Sprintf("fsim: pattern set has %d inputs, circuit has %d", ps.Inputs(), c.NumInputs()))
	}
	if opts.Mode == NDetect && opts.N <= 0 {
		panic("fsim: NDetect mode requires Options.N > 0")
	}

	nf := fl.Len()
	r := &Result{
		List:     fl,
		DetCount: make([]int, nf),
		FirstDet: make([]int, nf),
		Ndet:     make([]int, ps.Len()),
	}
	for i := range r.FirstDet {
		r.FirstDet[i] = -1
	}
	if opts.Mode == NoDrop || opts.Mode == NDetect {
		r.Det = make([]*logic.Bitset, nf)
		for i := range r.Det {
			r.Det[i] = logic.NewBitset(ps.Len())
		}
	}

	k := newKern[circuit.W1](circuit.Compile(c), true)
	pi := make([]circuit.W1, ps.Inputs())

	// active holds indices of not-yet-dropped faults; in NoDrop mode
	// it never shrinks.
	active := make([]int, nf)
	for i := range active {
		active[i] = i
	}

	for block := 0; block < ps.Blocks(); block++ {
		for i := range pi {
			pi[i] = circuit.W1(ps.Word(i, block))
		}
		k.simGood(pi)
		mask := ps.BlockMask(block)
		base := block * logic.WordBits

		w := 0
		for _, fi := range active {
			det := uint64(k.propagate(fl.Faults[fi])) & mask
			if opts.Mode == NDetect && det != 0 {
				// Count detections in vector order and stop exactly at
				// the n-th, so DetCount and ndet are block-size
				// independent.
				det = keepLowestBits(det, opts.N-r.DetCount[fi])
			}
			if det != 0 {
				r.DetCount[fi] += bits.OnesCount64(det)
				if r.FirstDet[fi] < 0 {
					r.FirstDet[fi] = base + bits.TrailingZeros64(det)
				}
				if r.Det != nil {
					r.Det[fi].OrWord(block, det)
				}
				for d := det; d != 0; d &= d - 1 {
					r.Ndet[base+bits.TrailingZeros64(d)]++
				}
			}
			keep := true
			switch opts.Mode {
			case Drop:
				keep = r.DetCount[fi] == 0
			case NDetect:
				keep = r.DetCount[fi] < opts.N
			}
			if keep {
				active[w] = fi
				w++
			}
		}
		active = active[:w]
		r.VectorsUsed = min(base+logic.WordBits, ps.Len())

		if opts.StopAtCoverage > 0 &&
			float64(r.DetectedCount()) >= opts.StopAtCoverage*float64(nf) {
			break
		}
		if len(active) == 0 && opts.Mode != NoDrop {
			break
		}
	}
	r.Ndet = r.Ndet[:r.VectorsUsed]
	return r
}

// Incremental is the stateful fault simulator used inside the test
// generation loop: vectors arrive one at a time and every fault the
// new vector detects is dropped immediately, exactly the "fault
// dropping" regime of the paper's ATPG flow.
//
// With one vector per call, PPSFP would leave 63 of every 64 lanes
// idle, so SimulateVector is parallel-fault instead (Seshu, 1965): the
// lanes carry up to 64 faults against the one vector, and a single
// event-driven walk over the union of their fanout cones simulates
// them all. The vector's good values are broadcast to every lane.
type Incremental struct {
	list  *fault.List
	cc    *circuit.Compiled
	alive []bool
	nAliv int

	pi   []circuit.W1 // the current vector, each bit broadcast to all lanes
	good []circuit.W1 // its good values, likewise broadcast
	in   []circuit.W1 // gathered fanin scratch

	// Parallel-fault walk state, reused across groups: lane l of a group
	// carries fault lanes[l]. A stem fault forces the lanes in
	// stemLanes[g] of its gate's output to stemOnes[g]; a branch fault
	// forces pinLanes/pinOnes of its fanin slot FaninStart[g]+pin.
	lanes     []int
	stemLanes []circuit.W1
	stemOnes  []circuit.W1
	pinLanes  []circuit.W1
	pinOnes   []circuit.W1
	site      []uint32 // epoch stamp: gate carries a fault of the group
	bad       []circuit.W1
	vmark     []uint32 // epoch stamp: bad[g] valid
	qmark     []uint32 // epoch stamp: gate queued
	epoch     uint32
	buckets   [][]int32
	qlo, qhi  int32 // queued level range
}

// NewIncremental returns an Incremental simulator over the faults of
// fl, executing cc, a compiled form of fl's circuit (or of a
// structurally identical one). All faults start alive.
func NewIncremental(fl *fault.List, cc *circuit.Compiled) *Incremental {
	if !compiledFrom(cc, fl.Circuit) {
		panic("fsim: compiled form does not match the fault list's circuit")
	}
	n := cc.NumGates()
	inc := &Incremental{
		list:      fl,
		cc:        cc,
		alive:     make([]bool, fl.Len()),
		nAliv:     fl.Len(),
		pi:        make([]circuit.W1, cc.NumInputs()),
		good:      make([]circuit.W1, n),
		in:        make([]circuit.W1, cc.MaxFanin),
		stemLanes: make([]circuit.W1, n),
		stemOnes:  make([]circuit.W1, n),
		pinLanes:  make([]circuit.W1, len(cc.Fanin)),
		pinOnes:   make([]circuit.W1, len(cc.Fanin)),
		site:      make([]uint32, n),
		bad:       make([]circuit.W1, n),
		vmark:     make([]uint32, n),
		qmark:     make([]uint32, n),
		buckets:   make([][]int32, cc.MaxLevel+1),
		qlo:       int32(cc.MaxLevel + 1),
		qhi:       -1,
	}
	for i := range inc.alive {
		inc.alive[i] = true
	}
	return inc
}

// Alive reports whether fault f has not yet been detected.
func (inc *Incremental) Alive(f int) bool { return inc.alive[f] }

// Remaining returns the number of alive faults.
func (inc *Incremental) Remaining() int { return inc.nAliv }

// Drop removes fault f from consideration without a detection (used
// for faults proven redundant by the ATPG). It is a no-op when f is
// already dropped.
func (inc *Incremental) Drop(f int) {
	if inc.alive[f] {
		inc.alive[f] = false
		inc.nAliv--
	}
}

// SimulateVector simulates v against all alive faults, drops every
// fault it detects and returns the dropped fault indices in
// increasing order.
//
// Only the faults v activates (the good value of the fault line is the
// complement of the stuck value) can be detected; they are packed 64
// per word in fault-index order and each word is simulated in one walk.
func (inc *Incremental) SimulateVector(v logic.Vector) []int {
	if len(v) != len(inc.pi) {
		panic(fmt.Sprintf("fsim: vector width %d, circuit has %d inputs", len(v), len(inc.pi)))
	}
	for i, bit := range v {
		inc.pi[i] = 0
		if bit != 0 {
			inc.pi[i] = ^circuit.W1(0)
		}
	}
	simGoodInto(inc.cc, inc.pi, inc.good, inc.in)

	cc := inc.cc
	var detected []int
	lanes := inc.lanes[:0]
	for fi, ok := range inc.alive {
		if !ok {
			continue
		}
		f := inc.list.Faults[fi]
		line := int32(f.Gate)
		if f.Pin != fault.StemPin {
			line = cc.Fanin[cc.FaninStart[line]+int32(f.Pin)]
		}
		if uint8(inc.good[line]&1) == f.SA {
			continue // not activated
		}
		lanes = append(lanes, fi)
		if len(lanes) == logic.WordBits {
			detected = inc.simulateGroup(lanes, detected)
			lanes = lanes[:0]
		}
	}
	if len(lanes) > 0 {
		detected = inc.simulateGroup(lanes, detected)
	}
	inc.lanes = lanes
	return detected
}

// simulateGroup simulates the faults of lanes, one per lane, against
// the current good values, drops the detected ones and appends them to
// detected in lane order.
func (inc *Incremental) simulateGroup(lanes []int, detected []int) []int {
	cc := inc.cc
	inc.epoch++
	for l, fi := range lanes {
		f := inc.list.Faults[fi]
		bit := circuit.W1(1) << l
		var ones circuit.W1
		if f.SA != 0 {
			ones = bit
		}
		g := int32(f.Gate)
		if f.Pin == fault.StemPin {
			inc.stemLanes[g] |= bit
			inc.stemOnes[g] |= ones
		} else {
			slot := cc.FaninStart[g] + int32(f.Pin)
			inc.pinLanes[slot] |= bit
			inc.pinOnes[slot] |= ones
		}
		inc.site[g] = inc.epoch
		inc.enqueue(g)
	}

	// Level-ordered single pass over the union of the cones: every
	// queued gate is evaluated once, after all of its fanins are final.
	var det circuit.W1
	for lvl := inc.qlo; lvl <= inc.qhi; lvl++ {
		bucket := inc.buckets[lvl]
		for _, gi := range bucket {
			lo, hi := cc.FaninStart[gi], cc.FaninStart[gi+1]
			isSite := inc.site[gi] == inc.epoch
			nv := inc.good[gi] // a PI site: its value is the good one
			if lo < hi {
				in := inc.in[:hi-lo]
				for p, fi := range cc.Fanin[lo:hi] {
					if inc.vmark[fi] == inc.epoch {
						in[p] = inc.bad[fi]
					} else {
						in[p] = inc.good[fi]
					}
				}
				if isSite {
					for p := range in {
						in[p] = in[p]&^inc.pinLanes[lo+int32(p)] | inc.pinOnes[lo+int32(p)]
					}
				}
				nv = in[0].EvalPins(cc.Type[gi], in)
			}
			if isSite {
				nv = nv&^inc.stemLanes[gi] | inc.stemOnes[gi]
			}
			diff := nv ^ inc.good[gi]
			if diff == 0 {
				continue
			}
			inc.bad[gi] = nv
			inc.vmark[gi] = inc.epoch
			if cc.Output[gi] {
				det |= diff
			}
			for _, fo := range cc.Fanout[cc.FanoutStart[gi]:cc.FanoutStart[gi+1]] {
				inc.enqueue(fo)
			}
		}
		inc.buckets[lvl] = bucket[:0]
	}
	inc.qlo, inc.qhi = int32(cc.MaxLevel+1), -1

	for _, fi := range lanes {
		f := inc.list.Faults[fi]
		if f.Pin == fault.StemPin {
			inc.stemLanes[f.Gate], inc.stemOnes[f.Gate] = 0, 0
		} else {
			slot := cc.FaninStart[f.Gate] + int32(f.Pin)
			inc.pinLanes[slot], inc.pinOnes[slot] = 0, 0
		}
	}
	for ; det != 0; det &= det - 1 {
		fi := lanes[bits.TrailingZeros64(uint64(det))]
		inc.alive[fi] = false
		inc.nAliv--
		detected = append(detected, fi)
	}
	return detected
}

// enqueue queues gate g for evaluation in the current group's walk.
func (inc *Incremental) enqueue(g int32) {
	if inc.qmark[g] == inc.epoch {
		return
	}
	inc.qmark[g] = inc.epoch
	lvl := inc.cc.Level[g]
	inc.buckets[lvl] = append(inc.buckets[lvl], g)
	inc.qlo = min(inc.qlo, lvl)
	inc.qhi = max(inc.qhi, lvl)
}

// compiledFrom reports whether cc was compiled from c or from a
// structurally identical circuit. The service registry shares one
// compiled form, and the good values computed from it, among every
// circuit with the same fingerprint, so pointer equality is too strict.
func compiledFrom(cc *circuit.Compiled, c *circuit.Circuit) bool {
	return cc.Circuit == c || cc.Fingerprint == c.Fingerprint()
}

// keepLowestBits returns w with all but its k lowest set bits cleared.
func keepLowestBits(w uint64, k int) uint64 {
	rest := w
	for ; k > 0 && rest != 0; k-- {
		rest &= rest - 1
	}
	return w &^ rest
}
