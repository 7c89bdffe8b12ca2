package irr

import (
	"fmt"
	"slices"
	"testing"

	"github.com/eda-go/adifo/internal/atpg"
	"github.com/eda-go/adifo/internal/benchdata"
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

// paperMembers are the suite members perfbench's paper-tables
// workload builds, irs208-irs641.
func paperMembers() []gen.SuiteCircuit { return gen.PaperSuite()[:9] }

// makePins pins, per member of paperMembers, the netlist irr.Make
// produces, its pass statistics and its input count. Every redundancy
// PODEM proves rewrites the netlist, so a changed PODEM verdict
// anywhere in the pass changes a fingerprint. irs382 and irs400 each
// lose one input that no live output reaches any more.
var makePins = map[string]struct {
	fingerprint uint64
	stats       Stats
	inputs      int
}{
	"irs208": {0xcb62d0dd732d4d77, Stats{Iterations: 2, RedundantRemoved: 8, GatesBefore: 104, GatesAfter: 102, Clean: true}, 19},
	"irs298": {0x17bafe711564320c, Stats{Iterations: 3, RedundantRemoved: 69, GatesBefore: 136, GatesAfter: 90, Clean: true}, 17},
	"irs344": {0x6785af62dd4fbe17, Stats{Iterations: 4, RedundantRemoved: 70, GatesBefore: 164, GatesAfter: 137, Clean: true}, 24},
	"irs382": {0x9f922e4ebfab70f3, Stats{Iterations: 3, RedundantRemoved: 121, GatesBefore: 182, GatesAfter: 142, Clean: true}, 23},
	"irs400": {0xbf681d65861ac086, Stats{Iterations: 3, RedundantRemoved: 304, GatesBefore: 191, GatesAfter: 83, Clean: true}, 23},
	"irs420": {0x86aa29516d34f93a, Stats{Iterations: 3, RedundantRemoved: 41, GatesBefore: 202, GatesAfter: 174, Clean: true}, 35},
	"irs510": {0xed8c6d8c3b4b20a2, Stats{Iterations: 3, RedundantRemoved: 209, GatesBefore: 236, GatesAfter: 162, Clean: true}, 25},
	"irs526": {0x3f2d3762560e3b32, Stats{Iterations: 2, RedundantRemoved: 274, GatesBefore: 248, GatesAfter: 152, Clean: true}, 24},
	"irs641": {0xa4b0bb9385d81ea7, Stats{Iterations: 2, RedundantRemoved: 64, GatesBefore: 294, GatesAfter: 270, Clean: true}, 54},
}

func TestMakeOnGeneratedSuite(t *testing.T) {
	for _, sc := range paperMembers() {
		pin := makePins[sc.Name]
		out, st, err := Make(sc.Build(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if got := out.Fingerprint(); got != pin.fingerprint {
			t.Errorf("%s: irr.Make fingerprint %#016x, pinned %#016x", sc.Name, got, pin.fingerprint)
		}
		if st != pin.stats {
			t.Errorf("%s: stats %+v, pinned %+v", sc.Name, st, pin.stats)
		}
		if got := out.NumInputs(); got != pin.inputs {
			t.Errorf("%s: %d inputs, pinned %d", sc.Name, got, pin.inputs)
		}
		assertIrredundant(t, out)
	}
}

// TestClassifyIndependentOfWorkers checks that classify returns the
// same redundant faults, in the same order, and the same aborted flag
// at every worker count. The raw irs420, irs510 and irs641 netlists at
// a backtrack limit of 50 abort cheaply, so the aborted flag gathered
// from all workers is exercised too. Raw irs344 at a limit of 900
// aborts on one of its 71 proofs, which the calling goroutine, itself
// a worker, often leaves to another worker.
func TestClassifyIndependentOfWorkers(t *testing.T) {
	type tc struct {
		name    string
		c       *circuit.Circuit
		limit   int
		aborted bool
	}
	var cases []tc
	for _, sc := range paperMembers()[:5] { // irs208-irs400
		cases = append(cases, tc{sc.Name, sc.Build(), 10000, false})
	}
	for _, name := range []string{"irs420", "irs510", "irs641"} {
		sc, _ := gen.SuiteByName(name)
		cases = append(cases, tc{name + "/limit50", sc.Build(), 50, true})
	}
	irs344, _ := gen.SuiteByName("irs344")
	cases = append(cases, tc{"irs344/limit900", irs344.Build(), 900, true})
	for seed := uint64(1); seed <= 4; seed++ {
		c := gen.Generate(gen.Config{Name: "g", Inputs: 12, Gates: 80, Seed: seed})
		cases = append(cases, tc{fmt.Sprintf("gen%d", seed), c, 10000, false})
	}
	c17 := benchdata.MustLoad("c17")
	if n := len(prefilter(c17, circuit.Compile(c17))); n != 0 {
		t.Fatalf("c17: %d faults survive the prefilter, want 0", n)
	}
	cases = append(cases, tc{"c17", c17, 10000, false})

	for _, k := range cases {
		red1, ab1 := classify(k.c, k.limit, 1)
		if ab1 != k.aborted {
			t.Fatalf("%s: aborted = %v at 1 worker, want %v", k.name, ab1, k.aborted)
		}
		for _, w := range []int{2, 3, 8} {
			red, ab := classify(k.c, k.limit, w)
			if !slices.Equal(red, red1) || ab != ab1 {
				t.Errorf("%s: %d workers: redundant list of %d (aborted %v) differs from 1 worker's of %d (aborted %v)",
					k.name, w, len(red), ab, len(red1), ab1)
			}
		}
	}
}

// BenchmarkMake times irr.Make at its defaults over the paper-tables
// members irs208-irs641. The raw netlists are generated before the
// timer starts.
func BenchmarkMake(b *testing.B) {
	var raws []*circuit.Circuit
	for _, sc := range paperMembers() {
		raws = append(raws, sc.Build())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, raw := range raws {
			if _, _, err := Make(raw, Options{}); err != nil {
				b.Fatal(err)
			}
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
