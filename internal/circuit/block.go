package circuit

// This file defines the bit-parallel value words the simulation
// kernels are generic over. A block carries one bit per pattern across
// W = 64·Lanes() patterns; every lane is an independent 64-pattern
// slice, so widening a kernel never changes what any individual lane
// computes — it only amortizes the per-gate walk (queue pushes, mark
// checks, branch mispredictions) over more patterns.
//
// The kernels gather a gate's fanin values into a scratch slice first
// (plain straight-line code, specialized per width by the compiler's
// shape stenciling) and then evaluate with one EvalPins call, so the
// inner loop performs no indirect calls and the fixed-size lane loops
// inside each width's operations unroll.

// Block is the constraint satisfied by the simulation word types. The
// type parameter B is always the implementing type itself (W1, W4 or
// W8), so operations stay concrete under instantiation.
type Block[B any] interface {
	W1 | W4 | W8

	// Lanes is the number of 64-pattern lanes (1, 4 or 8).
	Lanes() int
	// Lane extracts lane l; SetLane returns a copy with lane l replaced.
	Lane(l int) uint64
	SetLane(l int, w uint64) B

	Not() B
	Or(B) B
	Xor(B) B
	And(B) B
	IsZero() bool

	// EvalPins evaluates a gate of type t over its gathered fanin
	// values in pin order, one two-valued result bit per pattern. t
	// must be combinational (not PI); in must hold at least one pin.
	// Every word-level gate evaluation of the simulators goes through
	// it.
	EvalPins(t GateType, in []B) B
}

// W1 is the scalar 64-pattern block: the bit-identity reference width.
type W1 uint64

// W4 and W8 are 256- and 512-pattern blocks. Lane l of the array holds
// patterns [64l, 64l+64).
type (
	W4 [4]uint64
	W8 [8]uint64
)

func (W1) Lanes() int                   { return 1 }
func (v W1) Lane(int) uint64            { return uint64(v) }
func (v W1) SetLane(_ int, w uint64) W1 { return W1(w) }
func (v W1) Not() W1                    { return ^v }
func (v W1) Or(w W1) W1                 { return v | w }
func (v W1) Xor(w W1) W1                { return v ^ w }
func (v W1) And(w W1) W1                { return v & w }
func (v W1) IsZero() bool               { return v == 0 }

func (W4) Lanes() int          { return 4 }
func (v W4) Lane(l int) uint64 { return v[l] }
func (v W4) SetLane(l int, w uint64) W4 {
	v[l] = w
	return v
}

func (v W4) Not() W4 {
	for i := range v {
		v[i] = ^v[i]
	}
	return v
}

func (v W4) Or(w W4) W4 {
	for i := range v {
		v[i] |= w[i]
	}
	return v
}

func (v W4) Xor(w W4) W4 {
	for i := range v {
		v[i] ^= w[i]
	}
	return v
}

func (v W4) And(w W4) W4 {
	for i := range v {
		v[i] &= w[i]
	}
	return v
}

func (v W4) IsZero() bool { return v[0]|v[1]|v[2]|v[3] == 0 }

func (W8) Lanes() int          { return 8 }
func (v W8) Lane(l int) uint64 { return v[l] }
func (v W8) SetLane(l int, w uint64) W8 {
	v[l] = w
	return v
}

func (v W8) Not() W8 {
	for i := range v {
		v[i] = ^v[i]
	}
	return v
}

func (v W8) Or(w W8) W8 {
	for i := range v {
		v[i] |= w[i]
	}
	return v
}

func (v W8) Xor(w W8) W8 {
	for i := range v {
		v[i] ^= w[i]
	}
	return v
}

func (v W8) And(w W8) W8 {
	for i := range v {
		v[i] &= w[i]
	}
	return v
}

func (v W8) IsZero() bool {
	return v[0]|v[1]|v[2]|v[3]|v[4]|v[5]|v[6]|v[7] == 0
}

// The EvalPins bodies below are hand-specialized per width rather than
// shared through a generic fold: a generic implementation routes every
// ^/&/| through a non-inlined shape-dictionary method call, which
// profiles as ~20% of a fault-grading run. Keeping native operators
// (W1) and plain fixed-index array statements (W4/W8) inside each
// switch arm leaves exactly one call per gate evaluation.

func (W1) EvalPins(t GateType, in []W1) W1 {
	v := in[0]
	switch t {
	case Buf:
	case Not:
		v = ^v
	case And, Nand:
		for _, w := range in[1:] {
			v &= w
		}
		if t == Nand {
			v = ^v
		}
	case Or, Nor:
		for _, w := range in[1:] {
			v |= w
		}
		if t == Nor {
			v = ^v
		}
	case Xor, Xnor:
		for _, w := range in[1:] {
			v ^= w
		}
		if t == Xnor {
			v = ^v
		}
	default:
		panic("circuit: eval of non-combinational gate type")
	}
	return v
}

func (W4) EvalPins(t GateType, in []W4) W4 {
	v := in[0]
	switch t {
	case Buf:
	case Not:
		v[0], v[1], v[2], v[3] = ^v[0], ^v[1], ^v[2], ^v[3]
	case And, Nand:
		for i := 1; i < len(in); i++ {
			w := &in[i]
			v[0] &= w[0]
			v[1] &= w[1]
			v[2] &= w[2]
			v[3] &= w[3]
		}
		if t == Nand {
			v[0], v[1], v[2], v[3] = ^v[0], ^v[1], ^v[2], ^v[3]
		}
	case Or, Nor:
		for i := 1; i < len(in); i++ {
			w := &in[i]
			v[0] |= w[0]
			v[1] |= w[1]
			v[2] |= w[2]
			v[3] |= w[3]
		}
		if t == Nor {
			v[0], v[1], v[2], v[3] = ^v[0], ^v[1], ^v[2], ^v[3]
		}
	case Xor, Xnor:
		for i := 1; i < len(in); i++ {
			w := &in[i]
			v[0] ^= w[0]
			v[1] ^= w[1]
			v[2] ^= w[2]
			v[3] ^= w[3]
		}
		if t == Xnor {
			v[0], v[1], v[2], v[3] = ^v[0], ^v[1], ^v[2], ^v[3]
		}
	default:
		panic("circuit: eval of non-combinational gate type")
	}
	return v
}

func (W8) EvalPins(t GateType, in []W8) W8 {
	v := in[0]
	switch t {
	case Buf:
	case Not:
		v = v.Not()
	case And, Nand:
		for i := 1; i < len(in); i++ {
			w := &in[i]
			v[0] &= w[0]
			v[1] &= w[1]
			v[2] &= w[2]
			v[3] &= w[3]
			v[4] &= w[4]
			v[5] &= w[5]
			v[6] &= w[6]
			v[7] &= w[7]
		}
		if t == Nand {
			v = v.Not()
		}
	case Or, Nor:
		for i := 1; i < len(in); i++ {
			w := &in[i]
			v[0] |= w[0]
			v[1] |= w[1]
			v[2] |= w[2]
			v[3] |= w[3]
			v[4] |= w[4]
			v[5] |= w[5]
			v[6] |= w[6]
			v[7] |= w[7]
		}
		if t == Nor {
			v = v.Not()
		}
	case Xor, Xnor:
		for i := 1; i < len(in); i++ {
			w := &in[i]
			v[0] ^= w[0]
			v[1] ^= w[1]
			v[2] ^= w[2]
			v[3] ^= w[3]
			v[4] ^= w[4]
			v[5] ^= w[5]
			v[6] ^= w[6]
			v[7] ^= w[7]
		}
		if t == Xnor {
			v = v.Not()
		}
	default:
		panic("circuit: eval of non-combinational gate type")
	}
	return v
}
