package circuit_test

import (
	"testing"

	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/gen"
)

// verifyCompiled cross-checks every array of a compiled form against
// the source circuit's per-gate representation.
func verifyCompiled(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	cc := circuit.Compile(c)
	n := c.NumGates()
	if cc.Circuit != c {
		t.Fatal("Compiled.Circuit does not point at the source netlist")
	}
	if cc.Fingerprint != c.Fingerprint() {
		t.Fatal("Fingerprint not captured at compile time")
	}
	if cc.NumGates() != n || cc.NumInputs() != c.NumInputs() {
		t.Fatalf("size mismatch: %d/%d gates, %d/%d inputs",
			cc.NumGates(), n, cc.NumInputs(), c.NumInputs())
	}
	if cc.MaxLevel != c.MaxLevel {
		t.Fatalf("MaxLevel = %d, circuit has %d", cc.MaxLevel, c.MaxLevel)
	}

	maxFanin := 0
	for g := 0; g < n; g++ {
		gate := c.Gates[g]
		if cc.Type[g] != gate.Type {
			t.Fatalf("gate %d: type %v, want %v", g, cc.Type[g], gate.Type)
		}
		if int(cc.Level[g]) != c.Level[g] {
			t.Fatalf("gate %d: level %d, want %d", g, cc.Level[g], c.Level[g])
		}
		if cc.Output[g] != c.IsOutput(g) {
			t.Fatalf("gate %d: output flag %v, want %v", g, cc.Output[g], c.IsOutput(g))
		}
		fanin := cc.GateFanin(g)
		if len(fanin) != len(gate.Fanin) {
			t.Fatalf("gate %d: %d fanins, want %d", g, len(fanin), len(gate.Fanin))
		}
		for k, f := range gate.Fanin {
			if int(fanin[k]) != f {
				t.Fatalf("gate %d pin %d: fanin %d, want %d", g, k, fanin[k], f)
			}
		}
		if len(gate.Fanin) > maxFanin {
			maxFanin = len(gate.Fanin)
		}
		fanout := cc.Fanout[cc.FanoutStart[g]:cc.FanoutStart[g+1]]
		if len(fanout) != len(c.Fanout[g]) {
			t.Fatalf("gate %d: %d fanouts, want %d", g, len(fanout), len(c.Fanout[g]))
		}
		for k, fo := range c.Fanout[g] {
			if int(fanout[k]) != fo.Gate {
				t.Fatalf("gate %d fanout %d: %d, want %d", g, k, fanout[k], fo.Gate)
			}
		}
	}
	if cc.MaxFanin != maxFanin {
		t.Fatalf("MaxFanin = %d, want %d", cc.MaxFanin, maxFanin)
	}

	// Order must be a permutation of all gate ids, level-major with
	// ascending ids inside each level, delimited exactly by LevelStart.
	if len(cc.Order) != n || len(cc.LevelStart) != cc.MaxLevel+2 {
		t.Fatalf("Order/LevelStart sized %d/%d, want %d/%d",
			len(cc.Order), len(cc.LevelStart), n, cc.MaxLevel+2)
	}
	seen := make([]bool, n)
	for l := 0; l <= cc.MaxLevel; l++ {
		lo, hi := cc.LevelStart[l], cc.LevelStart[l+1]
		for i := lo; i < hi; i++ {
			g := cc.Order[i]
			if int(cc.Level[g]) != l {
				t.Fatalf("Order[%d] = gate %d at level %d inside bucket %d", i, g, cc.Level[g], l)
			}
			if seen[g] {
				t.Fatalf("gate %d appears twice in Order", g)
			}
			seen[g] = true
			if i > lo && cc.Order[i-1] >= g {
				t.Fatalf("Order not ascending within level %d: %d then %d", l, cc.Order[i-1], g)
			}
		}
	}
	if int(cc.LevelStart[cc.MaxLevel+1]) != n {
		t.Fatalf("LevelStart does not cover all %d gates", n)
	}

	// Level 0 is exactly the PIs, in ascending id order — the property
	// that lets evaluation start at Order[LevelStart[1]:].
	if int(cc.LevelStart[1]) != c.NumInputs() {
		t.Fatalf("level-0 bucket holds %d gates, want %d PIs", cc.LevelStart[1], c.NumInputs())
	}
	for i := 0; i < int(cc.LevelStart[1]); i++ {
		if cc.Type[cc.Order[i]] != circuit.PI {
			t.Fatalf("level-0 gate %d is %v, not PI", cc.Order[i], cc.Type[cc.Order[i]])
		}
	}

	for i, g := range c.Inputs {
		if int(cc.Inputs[i]) != g {
			t.Fatalf("Inputs[%d] = %d, want %d", i, cc.Inputs[i], g)
		}
	}
	for i, g := range c.Outputs {
		if int(cc.Outputs[i]) != g {
			t.Fatalf("Outputs[%d] = %d, want %d", i, cc.Outputs[i], g)
		}
	}
	verifyRegions(t, c, cc)
}

// verifyRegions checks Root, Succ and SuccSlot against a naive
// derivation from the per-gate fanout lists: a stem is a gate with
// other than one fanout connection or an observed gate, and a non-stem
// gate's root is found by following single fanouts until a stem.
func verifyRegions(t *testing.T, c *circuit.Circuit, cc *circuit.Compiled) {
	t.Helper()
	n := c.NumGates()
	if len(cc.Root) != n || len(cc.Succ) != n || len(cc.SuccSlot) != n {
		t.Fatalf("region tables sized %d/%d/%d, want %d",
			len(cc.Root), len(cc.Succ), len(cc.SuccSlot), n)
	}
	stem := func(g int) bool { return len(c.Fanout[g]) != 1 || c.IsOutput(g) }
	for g := 0; g < n; g++ {
		if stem(g) {
			if int(cc.Root[g]) != g || cc.Succ[g] != -1 || cc.SuccSlot[g] != -1 {
				t.Fatalf("stem %s: Root %d, Succ %d, SuccSlot %d; want %d, -1, -1",
					c.Gates[g].Name, cc.Root[g], cc.Succ[g], cc.SuccSlot[g], g)
			}
			continue
		}
		s := c.Fanout[g][0].Gate
		if int(cc.Succ[g]) != s {
			t.Fatalf("gate %s: Succ %d, want %d", c.Gates[g].Name, cc.Succ[g], s)
		}
		slot := -1
		for p, f := range c.Gates[s].Fanin {
			if f == g {
				slot = int(cc.FaninStart[s]) + p
			}
		}
		if int(cc.SuccSlot[g]) != slot || int(cc.Fanin[slot]) != g {
			t.Fatalf("gate %s: SuccSlot %d, want %d", c.Gates[g].Name, cc.SuccSlot[g], slot)
		}
		r := s
		for !stem(r) {
			r = c.Fanout[r][0].Gate
		}
		if int(cc.Root[g]) != r {
			t.Fatalf("gate %s: Root %d, want %d", c.Gates[g].Name, cc.Root[g], r)
		}
	}
}

// TestCompileRegionCorners pins the stem rule on a netlist with every
// corner of it: a NAND fed twice by one input (two connections to one
// sink make a stem), an observed gate with one fanout connection, a
// primary input with one fanout connection (inside a region) and a
// dead gate (no fanout, not observed: a stem of its own).
func TestCompileRegionCorners(t *testing.T) {
	b := circuit.NewBuilder("corners")
	a := b.AddInput("a")
	bi := b.AddInput("b")
	ci := b.AddInput("c")
	d := b.AddInput("d")
	n1 := b.AddGate("n1", circuit.Nand, a, a)
	n2 := b.AddGate("n2", circuit.And, n1, bi)
	n3 := b.AddGate("n3", circuit.Or, n2, ci)
	n4 := b.AddGate("n4", circuit.Not, n3)
	n5 := b.AddGate("n5", circuit.Xor, n4, d)
	dead := b.AddGate("dead", circuit.And, ci, d)
	b.MarkOutput(n2)
	b.MarkOutput(n5)
	c, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	verifyCompiled(t, c)

	cc := circuit.Compile(c)
	want := map[int]int{a: a, bi: n2, ci: ci, d: d, n1: n2, n2: n2, n3: n5, n4: n5, n5: n5, dead: dead}
	for g, r := range want {
		if int(cc.Root[g]) != r {
			t.Errorf("Root[%s] = %s, want %s", c.Gates[g].Name, c.Gates[cc.Root[g]].Name, c.Gates[r].Name)
		}
	}
	if cc.SuccSlot[bi] != cc.FaninStart[n2]+1 {
		t.Errorf("SuccSlot[b] = %d, want pin 1 of n2 (%d)", cc.SuccSlot[bi], cc.FaninStart[n2]+1)
	}
}

func TestCompileBenchCircuits(t *testing.T) {
	for _, name := range []string{"c17", "lion", "s27"} {
		c, err := benchdata.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { verifyCompiled(t, c) })
	}
}

func TestCompileGeneratedCircuits(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		c := gen.Generate(gen.Config{Name: "cmp", Inputs: 12, Gates: 400, Seed: seed})
		verifyCompiled(t, c)
	}
}

// BenchmarkCompile measures the one-time lowering cost per netlist —
// the price the registry pays on a compiled-cache miss.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"irs5378", "irs13207"} {
		sc, ok := gen.SuiteByName(name)
		if !ok {
			b.Fatalf("suite circuit %s missing", name)
		}
		c := sc.Build()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = circuit.Compile(c)
			}
		})
	}
}
