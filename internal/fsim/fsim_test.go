package fsim

import (
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
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

func parse(t testing.TB, name, src string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBenchString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// naiveDetects is an independent reference: evaluate the good and the
// faulty circuit gate by gate, pattern by pattern, with the fault
// modelled by brute force. Gates are evaluated by circuit.EvalV3 on
// binary values, which shares no code with the word kernels.
func naiveDetects(c *circuit.Circuit, f fault.Fault, v logic.Vector) bool {
	good := naiveValues(c, f, v, false)
	bad := naiveValues(c, f, v, true)
	for _, og := range c.Outputs {
		if good[og] != bad[og] {
			return true
		}
	}
	return false
}

func naiveValues(c *circuit.Circuit, f fault.Fault, v logic.Vector, inject bool) []uint8 {
	val := make([]uint8, c.NumGates())
	for i, gi := range c.Inputs {
		val[gi] = v[i] & 1
	}
	for _, gi := range c.Topo {
		g := c.Gates[gi]
		out := val[gi]
		if g.Type != circuit.PI {
			in := make([]logic.V3, len(g.Fanin))
			for k, fi := range g.Fanin {
				in[k] = logic.FromBit(val[fi])
			}
			if inject && f.Pin != fault.StemPin && f.Gate == gi {
				in[f.Pin] = logic.FromBit(f.SA)
			}
			out = circuit.EvalV3(g.Type, in).Bit()
		}
		if inject && f.Pin == fault.StemPin && f.Gate == gi {
			out = f.SA
		}
		val[gi] = out
	}
	return val
}

// detects reports whether v detects f, by a one-fault, one-vector
// Run.
func detects(c *circuit.Circuit, f fault.Fault, v logic.Vector) bool {
	ps := logic.NewPatternSet(c.NumInputs())
	ps.Append(v)
	fl := &fault.List{Circuit: c, Faults: []fault.Fault{f}}
	return Run(fl, ps, Options{Mode: NoDrop}).Detected(0)
}

func TestEngineMatchesNaiveC17Exhaustive(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	ps := logic.ExhaustivePatterns(c.NumInputs())
	res := Run(fl, ps, Options{Mode: NoDrop})
	for fi, f := range fl.Faults {
		for u := 0; u < ps.Len(); u++ {
			want := naiveDetects(c, f, ps.Get(u))
			got := res.Det[fi].Test(u)
			if got != want {
				t.Fatalf("fault %v vector %d: engine=%v naive=%v", f.Name(c), u, got, want)
			}
		}
	}
}

func TestEngineMatchesNaiveRandomCircuit(t *testing.T) {
	// A denser hand-rolled circuit with XORs, branches and inverters.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(o1)
OUTPUT(o2)
n1 = NOT(a)
n2 = XOR(a, b)
n3 = NAND(n2, c)
n4 = NOR(n1, d)
n5 = OR(n3, n4)
n6 = AND(n2, n3)
o1 = XNOR(n5, n6)
o2 = AND(n4, n2)
`
	c := parse(t, "dense", src)
	fl := fault.Universe(c)
	ps := logic.ExhaustivePatterns(c.NumInputs())
	res := Run(fl, ps, Options{Mode: NoDrop})
	for fi, f := range fl.Faults {
		for u := 0; u < ps.Len(); u++ {
			want := naiveDetects(c, f, ps.Get(u))
			if got := res.Det[fi].Test(u); got != want {
				t.Fatalf("fault %v vector %d: engine=%v naive=%v", f.Name(c), u, got, want)
			}
		}
	}
}

func TestNdetConsistency(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	ps := logic.ExhaustivePatterns(c.NumInputs())
	res := Run(fl, ps, Options{Mode: NoDrop})
	// ndet(u) must equal the column sums of the detection matrix, and
	// DetCount the row sums.
	for u := 0; u < ps.Len(); u++ {
		count := 0
		for fi := range fl.Faults {
			if res.Det[fi].Test(u) {
				count++
			}
		}
		if res.Ndet[u] != count {
			t.Fatalf("ndet(%d) = %d, column sum %d", u, res.Ndet[u], count)
		}
	}
	for fi := range fl.Faults {
		if res.DetCount[fi] != res.Det[fi].Count() {
			t.Fatalf("DetCount[%d] = %d, bitset count %d", fi, res.DetCount[fi], res.Det[fi].Count())
		}
	}
}

func TestDropModeMatchesNoDropFirstDetections(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	ps := logic.RandomPatterns(c.NumInputs(), 200, prng.New(3))
	noDrop := Run(fl, ps, Options{Mode: NoDrop})
	drop := Run(fl, ps, Options{Mode: Drop})
	for fi := range fl.Faults {
		if noDrop.FirstDet[fi] != drop.FirstDet[fi] {
			t.Fatalf("fault %d: FirstDet no-drop %d vs drop %d",
				fi, noDrop.FirstDet[fi], drop.FirstDet[fi])
		}
		if drop.Detected(fi) && drop.DetCount[fi] == 0 {
			t.Fatalf("fault %d: detected but count 0", fi)
		}
	}
	if noDrop.DetectedCount() != drop.DetectedCount() {
		t.Fatal("drop mode changed the set of detected faults")
	}
}

func TestNDetectMode(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	ps := logic.ExhaustivePatterns(c.NumInputs())
	const n = 3
	res := Run(fl, ps, Options{Mode: NDetect, N: n})
	noDrop := Run(fl, ps, Options{Mode: NoDrop})
	for fi := range fl.Faults {
		want := noDrop.DetCount[fi]
		if want > n {
			want = n
		}
		if res.DetCount[fi] != want {
			t.Fatalf("fault %d: NDetect count %d, want min(%d, %d)",
				fi, res.DetCount[fi], noDrop.DetCount[fi], n)
		}
		if res.FirstDet[fi] != noDrop.FirstDet[fi] {
			t.Fatalf("fault %d: NDetect FirstDet %d, no-drop %d",
				fi, res.FirstDet[fi], noDrop.FirstDet[fi])
		}
	}
}

func TestNDetectRequiresN(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	ps := logic.ExhaustivePatterns(c.NumInputs())
	defer func() {
		if recover() == nil {
			t.Fatal("NDetect without N did not panic")
		}
	}()
	Run(fl, ps, Options{Mode: NDetect})
}

func TestStopAtCoverage(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	ps := logic.RandomPatterns(c.NumInputs(), 64*10, prng.New(5))
	res := Run(fl, ps, Options{Mode: Drop, StopAtCoverage: 0.5})
	if res.VectorsUsed > ps.Len() || res.VectorsUsed <= 0 {
		t.Fatalf("VectorsUsed = %d", res.VectorsUsed)
	}
	if res.Coverage() < 0.5 {
		t.Fatalf("stopped at coverage %v < 0.5", res.Coverage())
	}
	if len(res.Ndet) != res.VectorsUsed {
		t.Fatalf("Ndet length %d != VectorsUsed %d", len(res.Ndet), res.VectorsUsed)
	}
}

func TestUndetectableFaultNeverDetected(t *testing.T) {
	// y = OR(a, NOT(a)) is constant 1: y sa1 is undetectable.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n = NOT(a)
y = OR(a, n)
z = AND(y, b)
`
	c := parse(t, "redundant", src)
	fl := fault.Universe(c)
	ps := logic.ExhaustivePatterns(c.NumInputs())
	res := Run(fl, ps, Options{Mode: NoDrop})
	y, _ := c.GateByName("y")
	for fi, f := range fl.Faults {
		if f.Gate == y && f.Pin == fault.StemPin && f.SA == 1 {
			if res.Detected(fi) {
				t.Fatal("undetectable fault reported detected")
			}
		}
	}
}

func TestIncrementalDrop(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	inc := NewIncremental(fl, circuit.Compile(c))
	n := inc.Remaining()
	inc.Drop(0)
	if inc.Remaining() != n-1 || inc.Alive(0) {
		t.Fatal("Drop did not remove the fault")
	}
	inc.Drop(0) // idempotent
	if inc.Remaining() != n-1 {
		t.Fatal("double Drop changed the count")
	}
}

func TestDetectsAgainstNaive(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	ps := logic.ExhaustivePatterns(c.NumInputs())
	for _, f := range fl.Faults {
		for u := 0; u < ps.Len(); u++ {
			v := ps.Get(u)
			if detects(c, f, v) != naiveDetects(c, f, v) {
				t.Fatalf("one-vector Run disagrees with naive for %v vector %d", f.Name(c), u)
			}
		}
	}
}

func TestBranchVsStemFaultDiffer(t *testing.T) {
	// With fanout, a branch fault must affect only its own sink:
	// a feeds both AND gates; the branch fault a->y1 sa0 kills y1
	// but leaves y2 healthy, while the stem fault kills both.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y1)
OUTPUT(y2)
y1 = AND(a, b)
y2 = AND(a, b)
`
	c := parse(t, "branch", src)
	a, _ := c.GateByName("a")
	y1, _ := c.GateByName("y1")
	v := logic.Vector{1, 1}

	stem := fault.Fault{Gate: a, Pin: fault.StemPin, SA: 0}
	branch := fault.Fault{Gate: y1, Pin: 0, SA: 0}
	if !detects(c, stem, v) || !detects(c, branch, v) {
		t.Fatal("both faults must be detected by 11")
	}
	// Check the branch fault leaves y2 untouched: compare against a
	// naive evaluation.
	bad := naiveValues(c, branch, v, true)
	good := naiveValues(c, branch, v, false)
	y2, _ := c.GateByName("y2")
	if bad[y2] != good[y2] {
		t.Fatal("branch fault leaked to the sibling branch")
	}
	if bad[y1] == good[y1] {
		t.Fatal("branch fault had no effect on its own sink")
	}
}

func TestRunPanicsOnWidthMismatch(t *testing.T) {
	c := parse(t, "c17", c17Bench)
	fl := fault.Universe(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(fl, logic.NewPatternSet(2), Options{Mode: NoDrop})
}

func BenchmarkNoDropC17(b *testing.B) {
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		b.Fatal(err)
	}
	fl := fault.Universe(c)
	ps := logic.RandomPatterns(c.NumInputs(), 640, prng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(fl, ps, Options{Mode: NoDrop})
	}
}
