package circuit

import (
	"math/bits"
	"strings"
	"testing"

	"github.com/eda-go/adifo/internal/logic"
)

// buildMux returns a 2:1 mux: y = (a AND NOT(s)) OR (b AND s).
func buildMux(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("mux")
	a := b.AddInput("a")
	bb := b.AddInput("b")
	s := b.AddInput("s")
	ns := b.AddGate("ns", Not, s)
	t0 := b.AddGate("t0", And, a, ns)
	t1 := b.AddGate("t1", And, bb, s)
	y := b.AddGate("y", Or, t0, t1)
	b.MarkOutput(y)
	c, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return c
}

func TestBuilderBasics(t *testing.T) {
	c := buildMux(t)
	if c.NumInputs() != 3 || c.NumOutputs() != 1 || c.NumGates() != 7 {
		t.Fatalf("counts wrong: %d inputs, %d outputs, %d gates",
			c.NumInputs(), c.NumOutputs(), c.NumGates())
	}
	if id, ok := c.GateByName("ns"); !ok || c.Gates[id].Type != Not {
		t.Fatal("GateByName failed")
	}
	y := c.Outputs[0]
	if !c.IsOutput(y) || c.IsOutput(c.Inputs[0]) {
		t.Fatal("IsOutput wrong")
	}
}

func TestLevelsAndTopo(t *testing.T) {
	c := buildMux(t)
	for _, pi := range c.Inputs {
		if c.Level[pi] != 0 {
			t.Fatalf("PI level = %d", c.Level[pi])
		}
	}
	ns, _ := c.GateByName("ns")
	t0, _ := c.GateByName("t0")
	y, _ := c.GateByName("y")
	if c.Level[ns] != 1 || c.Level[t0] != 2 || c.Level[y] != 3 || c.MaxLevel != 3 {
		t.Fatalf("levels wrong: ns=%d t0=%d y=%d max=%d",
			c.Level[ns], c.Level[t0], c.Level[y], c.MaxLevel)
	}
	// Topological: every gate appears after its fanins.
	pos := make([]int, c.NumGates())
	for i, g := range c.Topo {
		pos[g] = i
	}
	for gi, g := range c.Gates {
		for _, f := range g.Fanin {
			if pos[f] >= pos[gi] {
				t.Fatalf("gate %d before its fanin %d in topo order", gi, f)
			}
		}
	}
}

func TestFanout(t *testing.T) {
	c := buildMux(t)
	s := c.Inputs[2]
	// s drives ns (pin 0) and t1 (pin 1).
	if len(c.Fanout[s]) != 2 {
		t.Fatalf("fanout of s = %v", c.Fanout[s])
	}
	ns, _ := c.GateByName("ns")
	t1, _ := c.GateByName("t1")
	seen := map[Conn]bool{}
	for _, fo := range c.Fanout[s] {
		seen[fo] = true
	}
	if !seen[Conn{ns, 0}] || !seen[Conn{t1, 1}] {
		t.Fatalf("fanout of s = %v", c.Fanout[s])
	}
}

func TestFreezeRejectsCycle(t *testing.T) {
	b := NewBuilder("cyc")
	a := b.AddInput("a")
	// Forward-wire a cycle by patching fanins directly, as the bench
	// parser does.
	g1 := b.addGate("g1", And, nil)
	g2 := b.addGate("g2", And, nil)
	b.c.Gates[g1].Fanin = []int{a, g2}
	b.c.Gates[g2].Fanin = []int{a, g1}
	b.MarkOutput(g2)
	if _, err := b.Freeze(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestFreezeRejectsBadFanin(t *testing.T) {
	b := NewBuilder("bad")
	a := b.AddInput("a")
	b.AddGate("g", Not) // NOT with zero fanins
	b.MarkOutput(a)
	if _, err := b.Freeze(); err == nil {
		t.Fatal("expected fanin arity error")
	}

	b2 := NewBuilder("bad2")
	x := b2.AddInput("x")
	b2.AddGate("n", Not, x, x) // NOT with two fanins
	b2.MarkOutput(x)
	if _, err := b2.Freeze(); err == nil {
		t.Fatal("expected max-fanin error")
	}
}

func TestFreezeRejectsDuplicateNames(t *testing.T) {
	b := NewBuilder("dup")
	b.AddInput("a")
	b.AddInput("a")
	if _, err := b.Freeze(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate error, got %v", err)
	}
}

func TestFreezeRejectsNoInputsOrOutputs(t *testing.T) {
	b := NewBuilder("empty")
	if _, err := b.Freeze(); err == nil {
		t.Fatal("expected error for no inputs")
	}
	b2 := NewBuilder("noout")
	b2.AddInput("a")
	if _, err := b2.Freeze(); err == nil {
		t.Fatal("expected error for no outputs")
	}
}

// evalPinsCases gives every gate type at one pin (Buf, Not) or at two
// and three pins, with its function on 64-pattern words.
var evalPinsCases = []struct {
	t    GateType
	want func(in []uint64) uint64
	pins []int
}{
	{Buf, func(in []uint64) uint64 { return in[0] }, []int{1}},
	{Not, func(in []uint64) uint64 { return ^in[0] }, []int{1}},
	{And, func(in []uint64) uint64 { return fold(in, func(a, b uint64) uint64 { return a & b }) }, []int{2, 3}},
	{Nand, func(in []uint64) uint64 { return ^fold(in, func(a, b uint64) uint64 { return a & b }) }, []int{2, 3}},
	{Or, func(in []uint64) uint64 { return fold(in, func(a, b uint64) uint64 { return a | b }) }, []int{2, 3}},
	{Nor, func(in []uint64) uint64 { return ^fold(in, func(a, b uint64) uint64 { return a | b }) }, []int{2, 3}},
	{Xor, func(in []uint64) uint64 { return fold(in, func(a, b uint64) uint64 { return a ^ b }) }, []int{2, 3}},
	{Xnor, func(in []uint64) uint64 { return ^fold(in, func(a, b uint64) uint64 { return a ^ b }) }, []int{2, 3}},
}

func fold(in []uint64, op func(a, b uint64) uint64) uint64 {
	v := in[0]
	for _, w := range in[1:] {
		v = op(v, w)
	}
	return v
}

// truthWords enumerate all eight values of three pins in every byte.
var truthWords = []uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0}

// checkEvalPins evaluates every case at width B with lane l holding
// the truth words rotated by l bits, so each lane sees the full truth
// table in a different bit order and a lane mix-up changes the result.
func checkEvalPins[B Block[B]](t *testing.T) {
	t.Helper()
	var zero B
	lanes := zero.Lanes()
	for _, c := range evalPinsCases {
		for _, pins := range c.pins {
			in := make([]B, pins)
			for p := range in {
				for l := 0; l < lanes; l++ {
					in[p] = in[p].SetLane(l, bits.RotateLeft64(truthWords[p], l))
				}
			}
			got := in[0].EvalPins(c.t, in)
			lane := make([]uint64, pins)
			for l := 0; l < lanes; l++ {
				for p := range in {
					lane[p] = in[p].Lane(l)
				}
				if g, w := got.Lane(l), c.want(lane); g != w {
					t.Errorf("%d-lane %v with %d pins, lane %d: got %016x, want %016x",
						lanes, c.t, pins, l, g, w)
				}
			}
		}
	}
}

func TestEvalPinsAllTypes(t *testing.T) {
	checkEvalPins[W1](t)
	checkEvalPins[W4](t)
	checkEvalPins[W8](t)
}

func TestEvalV3MatchesEvalWordOnBinary(t *testing.T) {
	types := []GateType{Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	for _, ty := range types {
		nin := 2
		if ty == Buf || ty == Not {
			nin = 1
		}
		for mask := 0; mask < 1<<uint(nin); mask++ {
			words := make([]W1, nin)
			v3s := make([]logic.V3, nin)
			for i := 0; i < nin; i++ {
				bit := mask >> uint(i) & 1
				words[i] = W1(bit)
				v3s[i] = logic.FromBit(uint8(bit))
			}
			wordOut := words[0].EvalPins(ty, words) & 1
			v3Out := EvalV3(ty, v3s)
			if !v3Out.IsBinary() || W1(v3Out.Bit()) != wordOut {
				t.Errorf("%v inputs %b: EvalV3=%v EvalPins=%d", ty, mask, v3Out, wordOut)
			}
		}
	}
}

func TestEvalV3ControllingXBehaviour(t *testing.T) {
	if EvalV3(And, []logic.V3{logic.Zero, logic.X}) != logic.Zero {
		t.Fatal("AND(0,X) must be 0")
	}
	if EvalV3(Nand, []logic.V3{logic.Zero, logic.X}) != logic.One {
		t.Fatal("NAND(0,X) must be 1")
	}
	if EvalV3(Or, []logic.V3{logic.One, logic.X}) != logic.One {
		t.Fatal("OR(1,X) must be 1")
	}
	if EvalV3(Nor, []logic.V3{logic.One, logic.X}) != logic.Zero {
		t.Fatal("NOR(1,X) must be 0")
	}
	if EvalV3(Xor, []logic.V3{logic.One, logic.X}) != logic.X {
		t.Fatal("XOR(1,X) must be X")
	}
	if EvalV3(And, []logic.V3{logic.One, logic.X}) != logic.X {
		t.Fatal("AND(1,X) must be X")
	}
}

func TestControllingValue(t *testing.T) {
	cases := []struct {
		t  GateType
		v  logic.V3
		ok bool
	}{
		{And, logic.Zero, true},
		{Nand, logic.Zero, true},
		{Or, logic.One, true},
		{Nor, logic.One, true},
		{Xor, logic.X, false},
		{Not, logic.X, false},
	}
	for _, c := range cases {
		v, ok := c.t.ControllingValue()
		if ok != c.ok || (ok && v != c.v) {
			t.Errorf("%v ControllingValue = %v,%v", c.t, v, ok)
		}
	}
}

func TestInverting(t *testing.T) {
	for _, ty := range []GateType{Not, Nand, Nor, Xnor} {
		if !ty.Inverting() {
			t.Errorf("%v must be inverting", ty)
		}
	}
	for _, ty := range []GateType{Buf, And, Or, Xor, PI} {
		if ty.Inverting() {
			t.Errorf("%v must not be inverting", ty)
		}
	}
}

func TestComputeStats(t *testing.T) {
	c := buildMux(t)
	st := c.ComputeStats()
	if st.Gates != 4 || st.Inputs != 3 || st.Outputs != 1 || st.Levels != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Lines: 7 stems + 2 branches for s (fanout 2).
	if st.Lines != 9 {
		t.Fatalf("Lines = %d, want 9", st.Lines)
	}
	if st.FanoutStem != 1 || st.MaxFanout != 2 || st.MaxFanin != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestControllabilityMux(t *testing.T) {
	c := buildMux(t)
	cc := c.ComputeControllability()
	for _, pi := range c.Inputs {
		if cc.CC0[pi] != 1 || cc.CC1[pi] != 1 {
			t.Fatalf("PI controllability must be 1/1")
		}
	}
	ns, _ := c.GateByName("ns")
	if cc.CC0[ns] != 2 || cc.CC1[ns] != 2 {
		t.Fatalf("NOT controllability = %d/%d", cc.CC0[ns], cc.CC1[ns])
	}
	t0, _ := c.GateByName("t0")
	// AND: CC1 = CC1(a)+CC1(ns)+1 = 1+2+1 = 4; CC0 = min(1,2)+1 = 2.
	if cc.CC1[t0] != 4 || cc.CC0[t0] != 2 {
		t.Fatalf("AND controllability = CC0 %d / CC1 %d", cc.CC0[t0], cc.CC1[t0])
	}
}

func TestMarkOutputRangeCheck(t *testing.T) {
	b := NewBuilder("r")
	b.AddInput("a")
	b.MarkOutput(99)
	if _, err := b.Freeze(); err == nil {
		t.Fatal("expected error for out-of-range output id")
	}
}

func TestAddGatePIMisuse(t *testing.T) {
	b := NewBuilder("pi")
	b.AddGate("x", PI)
	if _, err := b.Freeze(); err == nil {
		t.Fatal("expected error for AddGate(PI)")
	}
}
