package atpg

import (
	"fmt"
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

const c17Bench = `
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

// detects reports whether v detects f, by a one-fault, one-vector
// fsim.Run.
func detects(c *circuit.Circuit, f fault.Fault, v logic.Vector) bool {
	ps := logic.NewPatternSet(c.NumInputs())
	ps.Append(v)
	fl := &fault.List{Circuit: c, Faults: []fault.Fault{f}}
	return fsim.Run(fl, ps, fsim.Options{Mode: fsim.NoDrop}).Detected(0)
}

func parse(t testing.TB, name, src string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBenchString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// exhaustiveDetectable computes, by brute force, whether each fault is
// detectable at all.
func exhaustiveDetectable(c *circuit.Circuit, fl *fault.List) []bool {
	ps := logic.ExhaustivePatterns(c.NumInputs())
	res := fsim.Run(fl, ps, fsim.Options{Mode: fsim.Drop})
	out := make([]bool, fl.Len())
	for i := range out {
		out[i] = res.Detected(i)
	}
	return out
}

func TestPodemC17AllFaults(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	g := New(circuit.Compile(c), Options{})
	detectable := exhaustiveDetectable(c, fl)
	for fi, f := range fl.Faults {
		res := g.Generate(f)
		if !detectable[fi] {
			if res.Status != Redundant {
				t.Fatalf("undetectable fault %v: status %v", f.Name(c), res.Status)
			}
			continue
		}
		if res.Status != Success {
			t.Fatalf("detectable fault %v: status %v", f.Name(c), res.Status)
		}
		// Any completion of the cube must detect the fault — check
		// the two constant fills, which bracket the fill space.
		for _, bit := range []uint8{0, 1} {
			v := fillConstant(res.Cube, bit)
			if !detects(c, f, v) {
				t.Fatalf("fault %v: cube %v filled with %d does not detect", f.Name(c), res.Cube, bit)
			}
		}
	}
}

func TestPodemFindsRedundancy(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: y sa1 undetectable, and so is
	// z's AND input from y stuck at 1.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n = NOT(a)
y = OR(a, n)
z = AND(y, b)
`
	c := parse(t, "red", src)
	fl := fault.Universe(c)
	g := New(circuit.Compile(c), Options{})
	detectable := exhaustiveDetectable(c, fl)
	for fi, f := range fl.Faults {
		res := g.Generate(f)
		switch {
		case detectable[fi] && res.Status != Success:
			t.Fatalf("detectable %v classified %v", f.Name(c), res.Status)
		case !detectable[fi] && res.Status != Redundant:
			t.Fatalf("undetectable %v classified %v", f.Name(c), res.Status)
		}
	}
}

func TestPodemBranchFaults(t *testing.T) {
	// Fanout with reconvergence — exercises branch-fault activation
	// and propagation, including the D-frontier special case.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NAND(b, c)
y = NAND(n1, n2)
`
	cc := parse(t, "reconv", src)
	fl := fault.Universe(cc)
	g := New(circuit.Compile(cc), Options{})
	detectable := exhaustiveDetectable(cc, fl)
	branchTested := 0
	for fi, f := range fl.Faults {
		res := g.Generate(f)
		if detectable[fi] {
			if res.Status != Success {
				t.Fatalf("fault %v: %v", f.Name(cc), res.Status)
			}
			v := fillConstant(res.Cube, 0)
			if !detects(cc, f, v) {
				t.Fatalf("fault %v: generated vector %s misses", f.Name(cc), v)
			}
			if f.Pin != fault.StemPin {
				branchTested++
			}
		} else if res.Status != Redundant {
			t.Fatalf("fault %v: %v", f.Name(cc), res.Status)
		}
	}
	if branchTested == 0 {
		t.Fatal("test circuit exercised no branch faults")
	}
}

func TestPodemXorCircuit(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(p)
x1 = XOR(a, b)
x2 = XNOR(c, d)
p = XOR(x1, x2)
`
	cc := parse(t, "xor", src)
	fl := fault.Universe(cc)
	g := New(circuit.Compile(cc), Options{})
	for _, f := range fl.Faults {
		res := g.Generate(f)
		// Every fault in a pure XOR tree is detectable.
		if res.Status != Success {
			t.Fatalf("fault %v: %v", f.Name(cc), res.Status)
		}
		if !detects(cc, f, fillConstant(res.Cube, 1)) {
			t.Fatalf("fault %v: vector misses", f.Name(cc))
		}
	}
}

// randomCircuit builds a deterministic random layered netlist for
// property-style testing.
func randomCircuit(t testing.TB, seed uint64, inputs, gates int) *circuit.Circuit {
	t.Helper()
	src := prng.New(seed)
	b := circuit.NewBuilder(fmt.Sprintf("rand%d", seed))
	var ids []int
	for i := 0; i < inputs; i++ {
		ids = append(ids, b.AddInput(fmt.Sprintf("i%d", i)))
	}
	types := []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Not, circuit.Buf}
	for i := 0; i < gates; i++ {
		ty := types[src.Intn(len(types))]
		nin := 2
		if ty == circuit.Not || ty == circuit.Buf {
			nin = 1
		}
		fanin := make([]int, nin)
		for k := range fanin {
			fanin[k] = ids[src.Intn(len(ids))]
		}
		ids = append(ids, b.AddGate(fmt.Sprintf("g%d", i), ty, fanin...))
	}
	// Observe the last few gates so most of the circuit is sensitizable.
	for k := 0; k < 3; k++ {
		b.MarkOutput(ids[len(ids)-1-k])
	}
	c, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPodemRandomCircuitsAgreeWithExhaustive(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		c := randomCircuit(t, seed, 8, 25)
		fl := fault.CollapsedUniverse(c)
		g := New(circuit.Compile(c), Options{})
		detectable := exhaustiveDetectable(c, fl)
		for fi, f := range fl.Faults {
			res := g.Generate(f)
			if detectable[fi] {
				if res.Status != Success {
					t.Fatalf("seed %d fault %v: %v (detectable)", seed, f.Name(c), res.Status)
				}
				if !detects(c, f, fillConstant(res.Cube, 0)) ||
					!detects(c, f, fillConstant(res.Cube, 1)) {
					t.Fatalf("seed %d fault %v: cube completion misses", seed, f.Name(c))
				}
			} else if res.Status == Success {
				t.Fatalf("seed %d fault %v: success on undetectable fault", seed, f.Name(c))
			}
		}
	}
}

func TestFillRandomPreservesAssignments(t *testing.T) {
	cube := []logic.V3{logic.One, logic.X, logic.Zero, logic.X}
	src := prng.New(4)
	for i := 0; i < 50; i++ {
		v := FillRandom(cube, src)
		if v[0] != 1 || v[2] != 0 {
			t.Fatalf("fill overwrote specified bits: %v", v)
		}
		if v[1] > 1 || v[3] > 1 {
			t.Fatalf("fill produced non-binary value: %v", v)
		}
	}
}

func TestFillConstant(t *testing.T) {
	cube := []logic.V3{logic.One, logic.X, logic.Zero}
	if got := fillConstant(cube, 0); got.String() != "100" {
		t.Fatalf("fillConstant 0 = %s", got)
	}
	if got := fillConstant(cube, 1); got.String() != "110" {
		t.Fatalf("fillConstant 1 = %s", got)
	}
}

func TestBacktrackLimitAborts(t *testing.T) {
	// A redundancy proof needs the search to exhaust the decision
	// tree; with a one-backtrack budget PODEM must abort instead of
	// claiming redundancy.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z)
n = NOT(a)
y = OR(a, n)
m1 = AND(b, c)
m2 = OR(m1, d)
z = AND(y, m2)
`
	cc := parse(t, "abort", src)
	y, _ := cc.GateByName("y")
	f := fault.Fault{Gate: y, Pin: fault.StemPin, SA: 1}

	full := New(circuit.Compile(cc), Options{}).Generate(f)
	if full.Status != Redundant {
		t.Fatalf("with full budget: %v, want redundant", full.Status)
	}
	limited := New(circuit.Compile(cc), Options{BacktrackLimit: 1}).Generate(f)
	if limited.Status != Aborted {
		t.Fatalf("with 1-backtrack budget: %v, want aborted", limited.Status)
	}
}

func TestStatusString(t *testing.T) {
	if Success.String() != "success" || Redundant.String() != "redundant" || Aborted.String() != "aborted" {
		t.Fatal("status labels wrong")
	}
	if Status(9).String() == "" {
		t.Fatal("unknown status label empty")
	}
}

func TestGeneratorReusableAcrossFaults(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	g := New(circuit.Compile(c), Options{})
	// Run twice over the fault list; results must be identical.
	first := make([]Status, fl.Len())
	for fi, f := range fl.Faults {
		first[fi] = g.Generate(f).Status
	}
	for fi, f := range fl.Faults {
		if got := g.Generate(f).Status; got != first[fi] {
			t.Fatalf("fault %d: status changed across reuse: %v vs %v", fi, got, first[fi])
		}
	}
}

// BenchmarkPodem runs PODEM at the default backtrack limit on every
// fault of irs641's raw netlist, whose redundant and aborted faults
// exercise deep searches.
func BenchmarkPodem(b *testing.B) {
	sc, _ := gen.SuiteByName("irs641")
	c := sc.Build()
	fl := fault.Universe(c)
	g := New(circuit.Compile(c), Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fl.Faults {
			g.Generate(f)
		}
	}
}

// fillConstant completes a test cube with a constant bit in place of
// every X, so a test can check a cube under both fills.
func fillConstant(cube []logic.V3, bit uint8) logic.Vector {
	v := make(logic.Vector, len(cube))
	for i, val := range cube {
		switch val {
		case logic.Zero:
			v[i] = 0
		case logic.One:
			v[i] = 1
		default:
			v[i] = bit & 1
		}
	}
	return v
}
