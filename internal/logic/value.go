// Package logic defines the value systems shared by the simulators and
// the test generator:
//
//   - two-valued bit-parallel words (uint64, 64 patterns per word) used
//     by the good-machine and fault simulators;
//   - the three-valued system {0, 1, X} of PODEM's test cubes and of
//     the evaluation oracle circuit.EvalV3;
//   - pattern sets: packed collections of input vectors addressed as
//     (vector index, input index).
//
// Keeping these in one leaf package lets the simulator, the ATPG and
// the ADI machinery agree on encodings without import cycles.
package logic

import "fmt"

// WordBits is the number of test patterns processed in parallel by the
// bit-parallel simulators.
const WordBits = 64

// V3 is a three-valued logic value: zero, one, or unknown/unassigned.
type V3 uint8

// The three values of V3. X is deliberately the zero value so that a
// freshly allocated value slice reads as "everything unassigned".
const (
	X    V3 = iota // unknown / unassigned
	Zero           // logic 0
	One            // logic 1
)

// String returns "X", "0" or "1".
func (v V3) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "X"
	}
	return fmt.Sprintf("V3(%d)", uint8(v))
}

// IsBinary reports whether v is fully specified (0 or 1).
func (v V3) IsBinary() bool { return v == Zero || v == One }

// Not returns the three-valued complement: ¬0=1, ¬1=0, ¬X=X.
func (v V3) Not() V3 {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

// FromBit converts a binary digit (0 or 1) to a V3.
func FromBit(b uint8) V3 {
	if b != 0 {
		return One
	}
	return Zero
}

// Bit converts a binary V3 to 0 or 1. It panics on X: callers must
// check IsBinary first, which keeps silent mis-encodings out of the
// simulators.
func (v V3) Bit() uint8 {
	switch v {
	case Zero:
		return 0
	case One:
		return 1
	}
	panic("logic: Bit called on X")
}

// And3 returns the three-valued AND of a and b. A controlling 0 on
// either side forces 0 even if the other side is X.
func And3(a, b V3) V3 {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

// Or3 returns the three-valued OR of a and b. A controlling 1 on
// either side forces 1 even if the other side is X.
func Or3(a, b V3) V3 {
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

// Xor3 returns the three-valued XOR of a and b; any X operand makes
// the result X.
func Xor3(a, b V3) V3 {
	if !a.IsBinary() || !b.IsBinary() {
		return X
	}
	if a == b {
		return Zero
	}
	return One
}
