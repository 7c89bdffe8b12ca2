package benchdata

import (
	"testing"

	"github.com/eda-go/adifo/internal/atpg"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
)

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

func TestLoadAll(t *testing.T) {
	for _, name := range Names() {
		c, err := Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumInputs() == 0 || c.NumOutputs() == 0 {
			t.Fatalf("%s: empty interface", name)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nope"); err == nil {
		t.Fatal("unknown circuit loaded")
	}
	if _, err := Source("nope"); err == nil {
		t.Fatal("unknown source loaded")
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad on unknown did not panic")
		}
	}()
	MustLoad("nope")
}

func TestS27ScanConversion(t *testing.T) {
	c := MustLoad("s27")
	// 4 PIs + 3 pseudo-PIs; 1 PO + 3 pseudo-POs.
	if c.NumInputs() != 7 {
		t.Fatalf("s27 inputs = %d, want 7", c.NumInputs())
	}
	if c.NumOutputs() != 4 {
		t.Fatalf("s27 outputs = %d, want 4", c.NumOutputs())
	}
	if st := c.ComputeStats(); st.Gates != 10 {
		t.Fatalf("s27 gates = %d, want 10", st.Gates)
	}
}

func TestLionShapeMatchesTable1Setting(t *testing.T) {
	c := MustLoad("lion")
	// The paper's worked example: 4 inputs, 16 vectors, F of about 40
	// collapsed faults, all detectable by exhaustive simulation.
	if c.NumInputs() != 4 {
		t.Fatalf("lion inputs = %d, want 4", c.NumInputs())
	}
	fl := fault.CollapsedUniverse(c)
	if fl.Len() < 30 || fl.Len() > 50 {
		t.Fatalf("lion collapsed faults = %d, want around 40", fl.Len())
	}
	u := logic.ExhaustivePatterns(4)
	res := fsim.Run(fl, u, fsim.Options{Mode: fsim.NoDrop})
	if res.DetectedCount() != fl.Len() {
		t.Fatalf("lion: only %d of %d faults detectable — worked example requires an irredundant core",
			res.DetectedCount(), fl.Len())
	}
}

func TestEmbeddedCircuitsAreIrredundant(t *testing.T) {
	for _, name := range Names() {
		c := MustLoad(name)
		fl := fault.CollapsedUniverse(c)
		g := atpg.New(circuit.Compile(c), atpg.Options{})
		for _, f := range fl.Faults {
			if g.Generate(f).Status == atpg.Redundant {
				t.Errorf("%s: fault %v undetectable", name, f.Name(c))
			}
		}
	}
}
