// Package circuit implements the gate-level combinational netlist that
// every other subsystem (fault model, simulators, ATPG, generators)
// operates on.
//
// A Circuit is a DAG of gates. Primary inputs are modelled as gates of
// type PI with no fanin, so that every signal in the design is simply
// "the output of gate i"; this uniform view keeps fault sites, value
// arrays and event queues indexable by a single integer.
//
// Full-scan handling: the .bench reader converts sequential designs to
// their combinational core the same way the paper does — every DFF
// output becomes a pseudo primary input and every DFF data input
// becomes a pseudo primary output. After parsing there are no state
// elements left; the rest of the library only ever sees combinational
// circuits.
package circuit

import (
	"fmt"

	"github.com/eda-go/adifo/internal/logic"
)

// GateType enumerates the primitive cell library. It matches the
// operator set of the ISCAS-89 .bench format.
type GateType uint8

// Supported gate types. PI is the pseudo-gate type for primary inputs
// (including scan pseudo-inputs produced from DFFs).
const (
	PI GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	numGateTypes
)

var gateNames = [...]string{
	PI:   "INPUT",
	Buf:  "BUFF",
	Not:  "NOT",
	And:  "AND",
	Nand: "NAND",
	Or:   "OR",
	Nor:  "NOR",
	Xor:  "XOR",
	Xnor: "XNOR",
}

// String returns the .bench spelling of the gate type.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Inverting reports whether the gate complements its "natural"
// function (NAND vs AND, NOR vs OR, NOT vs BUF, XNOR vs XOR). The
// backtrace in PODEM uses this to flip objective values through a
// gate.
func (t GateType) Inverting() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// ControllingValue returns the controlling input value of the gate
// type and whether one exists. A controlling value on any input fixes
// the output regardless of the remaining inputs (0 for AND/NAND, 1
// for OR/NOR). XOR-family and single-input gates have none.
func (t GateType) ControllingValue() (v logic.V3, ok bool) {
	switch t {
	case And, Nand:
		return logic.Zero, true
	case Or, Nor:
		return logic.One, true
	}
	return logic.X, false
}

// MinFanin returns the minimum legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case PI:
		return 0
	case Buf, Not:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count (0 meaning
// unbounded).
func (t GateType) MaxFanin() int {
	switch t {
	case PI:
		return 0
	case Buf, Not:
		return 1
	default:
		return 0
	}
}

// Gate is one node of the netlist. Fanin holds gate indices in input
// pin order; the order matters because fault sites are addressed as
// (gate, pin).
type Gate struct {
	Name  string
	Type  GateType
	Fanin []int
}

// EvalV3 evaluates the gate function over three-valued inputs, with
// the optimistic (ternary) semantics PODEM implies by: a controlling
// binary input decides the output even when other inputs are X. No
// simulator or generator calls it; it is the independent per-gate
// oracle that the circuit, fsim, atpg and irr tests check the packed
// and word-level evaluators against.
func EvalV3(t GateType, in []logic.V3) logic.V3 {
	switch t {
	case Buf:
		return in[0]
	case Not:
		return in[0].Not()
	case And, Nand:
		v := logic.One
		for _, x := range in {
			v = logic.And3(v, x)
			if v == logic.Zero {
				break
			}
		}
		if t == Nand {
			v = v.Not()
		}
		return v
	case Or, Nor:
		v := logic.Zero
		for _, x := range in {
			v = logic.Or3(v, x)
			if v == logic.One {
				break
			}
		}
		if t == Nor {
			v = v.Not()
		}
		return v
	case Xor, Xnor:
		v := logic.Zero
		for _, x := range in {
			v = logic.Xor3(v, x)
			if v == logic.X {
				return logic.X
			}
		}
		if t == Xnor {
			v = v.Not()
		}
		return v
	}
	panic(fmt.Sprintf("circuit: EvalV3 on %v", t))
}
