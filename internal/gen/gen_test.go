package gen

import (
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/irr"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "d", Inputs: 12, Gates: 80, Seed: 5}
	a := circuit.BenchString(Generate(cfg))
	b := circuit.BenchString(Generate(cfg))
	if a != b {
		t.Fatal("same config produced different circuits")
	}
	cfg2 := cfg
	cfg2.Seed = 6
	if a == circuit.BenchString(Generate(cfg2)) {
		t.Fatal("different seeds produced identical circuits")
	}
}

func TestGenerateStructure(t *testing.T) {
	cfg := Config{Name: "s", Inputs: 16, Gates: 120, Seed: 9}
	c := Generate(cfg)
	st := c.ComputeStats()
	if st.Inputs != 16 || st.Gates != 120 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Outputs == 0 {
		t.Fatal("no outputs")
	}
	if st.Levels < 4 {
		t.Fatalf("circuit too shallow: %d levels", st.Levels)
	}
	// Every PI must drive something.
	for _, pi := range c.Inputs {
		if len(c.Fanout[pi]) == 0 {
			t.Fatalf("floating primary input %s", c.Gates[pi].Name)
		}
	}
	// Every non-output gate must have fanout.
	for gi := range c.Gates {
		if c.Gates[gi].Type == circuit.PI {
			continue
		}
		if len(c.Fanout[gi]) == 0 && !c.IsOutput(gi) {
			t.Fatalf("dangling gate %s", c.Gates[gi].Name)
		}
	}
}

func TestGeneratePanicsOnDegenerate(t *testing.T) {
	for _, cfg := range []Config{
		{Inputs: 1, Gates: 10},
		{Inputs: 5, Gates: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			Generate(cfg)
		}()
	}
}

func TestRandomPatternCoverageRegime(t *testing.T) {
	// The irredundant suite circuits must reach >= 90% coverage of the
	// collapsed fault set within 10k random patterns but NOT within
	// the first 32 — hard faults must exist, matching the regime the
	// paper's vector-set sizing relies on (Section 4). The raw
	// generator output is allowed to fall short: its undetectable
	// faults are removed by the irr pass before any experiment runs.
	for _, sc := range SmallSuite() {
		c, _, err := irr.Make(sc.Build(), irr.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		fl := fault.CollapsedUniverse(c)
		ps := logic.RandomPatterns(c.NumInputs(), 10000, prng.New(77))
		res := fsim.Run(fl, ps, fsim.Options{Mode: fsim.Drop, StopAtCoverage: 0.90})
		if res.Coverage() < 0.90 {
			t.Errorf("%s: 10k random patterns reach only %.1f%% coverage",
				sc.Name, 100*res.Coverage())
		}
		early := fsim.Run(fl, ps.Slice(32), fsim.Options{Mode: fsim.Drop})
		if early.Coverage() >= 0.999 {
			t.Errorf("%s: full coverage after 32 patterns — no hard faults", sc.Name)
		}
	}
}

func TestPaperSuiteShape(t *testing.T) {
	suite := PaperSuite()
	if len(suite) != 14 {
		t.Fatalf("suite has %d circuits, want 14", len(suite))
	}
	wantInputs := map[string]int{
		"irs208": 19, "irs298": 17, "irs344": 24, "irs382": 24,
		"irs400": 24, "irs420": 35, "irs510": 25, "irs526": 24,
		"irs641": 54, "irs820": 23, "irs953": 45, "irs1196": 32,
		"irs5378": 214, "irs13207": 699,
	}
	for _, sc := range suite {
		if wantInputs[sc.Name] != sc.Inputs {
			t.Errorf("%s: inputs %d, paper says %d", sc.Name, sc.Inputs, wantInputs[sc.Name])
		}
	}
	// incr0 omitted for the two largest, as in the paper's Table 5.
	for _, sc := range suite {
		wantSkip := sc.Name == "irs5378" || sc.Name == "irs13207"
		if sc.SkipIncr0 != wantSkip {
			t.Errorf("%s: SkipIncr0 = %v", sc.Name, sc.SkipIncr0)
		}
	}
}

func TestSuiteByName(t *testing.T) {
	sc, ok := SuiteByName("irs420")
	if !ok || sc.Inputs != 35 {
		t.Fatalf("SuiteByName(irs420) = %+v, %v", sc, ok)
	}
	if _, ok := SuiteByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestSuiteSelectors(t *testing.T) {
	small, err := SelectSuite("small")
	if err != nil || len(small) != 3 {
		t.Fatalf("small = %d circuits, %v", len(small), err)
	}
	full, err := SelectSuite("full")
	if err != nil || len(full) != 14 {
		t.Fatalf("full = %d circuits, %v", len(full), err)
	}
	one, err := SelectSuite("irs420")
	if err != nil || len(one) != 1 || one[0].Name != "irs420" {
		t.Fatalf("single = %+v, %v", one, err)
	}
	if _, err := SelectSuite("bogus"); err == nil {
		t.Fatal("bogus suite accepted")
	}
}

func TestSuiteBuildsParseable(t *testing.T) {
	// Round-trip each small suite member through the .bench format.
	for _, sc := range SmallSuite() {
		c := sc.Build()
		rt, err := circuit.ParseBenchString(sc.Name, circuit.BenchString(c))
		if err != nil {
			t.Fatalf("%s: round trip failed: %v", sc.Name, err)
		}
		if rt.NumGates() != c.NumGates() {
			t.Fatalf("%s: round trip changed gate count", sc.Name)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Inputs: 4, Gates: 4}.withDefaults()
	if cfg.XorFrac == 0 || cfg.InvFrac == 0 || cfg.WideFrac == 0 || cfg.DupFrac == 0 || cfg.ObserveFrac == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}
