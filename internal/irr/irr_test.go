package irr

import (
	"testing"

	"github.com/eda-go/adifo/internal/atpg"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
)

// outputs evaluates c under v gate by gate with circuit.EvalV3 and
// returns the output bits in c.Outputs order.
func outputs(c *circuit.Circuit, v logic.Vector) []uint8 {
	val := make([]logic.V3, c.NumGates())
	for i, gi := range c.Inputs {
		val[gi] = logic.FromBit(v[i])
	}
	for _, gi := range c.Topo {
		g := c.Gates[gi]
		if g.Type == circuit.PI {
			continue
		}
		in := make([]logic.V3, len(g.Fanin))
		for k, fi := range g.Fanin {
			in[k] = val[fi]
		}
		val[gi] = circuit.EvalV3(g.Type, in)
	}
	out := make([]uint8, len(c.Outputs))
	for i, og := range c.Outputs {
		out[i] = val[og].Bit()
	}
	return out
}

func parse(t testing.TB, name, src string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBenchString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertIrredundant checks with the ATPG that no collapsed fault of c
// is undetectable.
func assertIrredundant(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	fl := fault.CollapsedUniverse(c)
	g := atpg.New(circuit.Compile(c), atpg.Options{})
	for _, f := range fl.Faults {
		if g.Generate(f).Status == atpg.Redundant {
			t.Fatalf("fault %v still undetectable", f.Name(c))
		}
	}
}

func TestMakeOnAlreadyIrredundant(t *testing.T) {
	src := `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`
	c := parse(t, "c17", src)
	out, st, err := Make(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RedundantRemoved != 0 || !st.Clean {
		t.Fatalf("c17 is irredundant; stats = %+v", st)
	}
	if out.ComputeStats() != c.ComputeStats() {
		t.Fatal("irredundant circuit was modified")
	}
}

func TestMakeRemovesClassicRedundancy(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1; z = AND(y, b) should simplify
	// to (a function equivalent to) BUF(b).
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n = NOT(a)
y = OR(a, n)
z = AND(y, b)
`
	c := parse(t, "red", src)
	out, st, err := Make(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RedundantRemoved == 0 {
		t.Fatal("no redundancy removed")
	}
	if !st.Clean {
		t.Fatalf("not clean: %+v", st)
	}
	assertIrredundant(t, out)
	// The output must now follow b directly (z = b for both b values,
	// regardless of a if a survived).
	for bv := uint8(0); bv <= 1; bv++ {
		v := make(logic.Vector, out.NumInputs())
		for i := range v {
			v[i] = bv
		}
		got := outputs(out, v)
		if got[0] != bv {
			t.Fatalf("simplified circuit: z(%d...) = %d, want %d", bv, got[0], bv)
		}
	}
	if got := out.ComputeStats().Gates; got >= c.ComputeStats().Gates {
		t.Fatalf("gate count did not shrink: %d", got)
	}
}

func TestMakeXorSimplification(t *testing.T) {
	// x = XOR(a, a) is constant 0; y = XNOR(x, b) should become
	// NOT(b).
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
x = XOR(a, a)
y = XNOR(x, b)
`
	c := parse(t, "xorred", src)
	out, st, err := Make(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Clean {
		t.Fatalf("not clean: %+v", st)
	}
	assertIrredundant(t, out)
	for bv := uint8(0); bv <= 1; bv++ {
		v := make(logic.Vector, out.NumInputs())
		for i := range v {
			v[i] = bv
		}
		if got := outputs(out, v)[0]; got != 1-bv {
			t.Fatalf("y(%d) = %d, want %d", bv, got, 1-bv)
		}
	}
}

func TestMakeDegenerateCircuitErrors(t *testing.T) {
	// The single output is constant: nothing testable remains.
	src := `
INPUT(a)
OUTPUT(y)
n = NOT(a)
y = OR(a, n)
`
	c := parse(t, "allconst", src)
	if _, _, err := Make(c, Options{}); err == nil {
		t.Fatal("expected degeneration error")
	}
}

// makeFingerprints pins the netlist irr.Make produces for each small
// suite member. Every redundancy PODEM proves rewrites the netlist, so
// a changed PODEM verdict anywhere in the pass changes a fingerprint.
var makeFingerprints = map[string]uint64{
	"irs208": 0xcb62d0dd732d4d77,
	"irs298": 0x17bafe711564320c,
	"irs420": 0x86aa29516d34f93a,
}

func TestMakeOnGeneratedSuite(t *testing.T) {
	for _, sc := range gen.SmallSuite() {
		raw := gen.Generate(sc.Config())
		out, st, err := Make(raw, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if got, want := out.Fingerprint(), makeFingerprints[sc.Name]; got != want {
			t.Errorf("%s: irr.Make fingerprint %#016x, pinned %#016x", sc.Name, got, want)
		}
		if !st.Clean {
			t.Fatalf("%s: pass did not converge: %+v", sc.Name, st)
		}
		assertIrredundant(t, out)
		if out.NumInputs() != raw.NumInputs() {
			t.Fatalf("%s: pass dropped primary inputs (%d -> %d); pick a new suite seed",
				sc.Name, raw.NumInputs(), out.NumInputs())
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	sc := gen.SmallSuite()[0]
	raw := gen.Generate(sc.Config())
	_, st, err := Make(raw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations < 1 || st.GatesBefore == 0 || st.GatesAfter == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.GatesAfter > st.GatesBefore {
		t.Fatalf("gate count grew: %+v", st)
	}
}
