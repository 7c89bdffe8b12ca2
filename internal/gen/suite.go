package gen

import (
	"fmt"
	"strings"

	"github.com/eda-go/adifo/internal/circuit"
)

// SuiteCircuit describes one member of the benchmark suite mirroring
// the paper's circuit list.
type SuiteCircuit struct {
	// Name matches the paper's row label (irs208 … irs13207).
	Name string
	// Inputs is the primary-input count reported in the paper's
	// Table 4 for this circuit.
	Inputs int
	// Gates is the synthetic gate budget, scaled to the benchmark's
	// traditional "line number" name.
	Gates int
	// Seed fixes the construction.
	Seed uint64
	// SkipIncr0 mirrors the paper's Table 5, which omits the incr0
	// column for the two largest circuits.
	SkipIncr0 bool
	// GuardFrac overrides the generator's guard-region probability
	// when non-zero. The two largest members use a light setting:
	// the paper's large benchmarks show narrow ADI spreads (ratio
	// 1.26-1.29), and dialing the random-resistant tail down both
	// matches that regime and keeps the irredundancy pass tractable.
	GuardFrac float64
}

// Config returns the generator configuration for the suite member.
func (s SuiteCircuit) Config() Config {
	return Config{Name: s.Name, Inputs: s.Inputs, Gates: s.Gates, Seed: s.Seed, GuardFrac: s.GuardFrac}
}

// Build generates the circuit.
func (s SuiteCircuit) Build() *circuit.Circuit { return Generate(s.Config()) }

// PaperSuite returns the fourteen-circuit suite standing in for the
// paper's irredundant ISCAS-89 combinational cores. Input counts copy
// the paper's Table 4; gate budgets scale with the original
// benchmark's name. Seeds are arbitrary but frozen: changing one
// invalidates EXPERIMENTS.md.
func PaperSuite() []SuiteCircuit {
	return []SuiteCircuit{
		{Name: "irs208", Inputs: 19, Gates: 104, Seed: 12208},
		{Name: "irs298", Inputs: 17, Gates: 136, Seed: 2298},
		{Name: "irs344", Inputs: 24, Gates: 164, Seed: 2344},
		{Name: "irs382", Inputs: 24, Gates: 182, Seed: 2382},
		{Name: "irs400", Inputs: 24, Gates: 192, Seed: 2400},
		{Name: "irs420", Inputs: 35, Gates: 202, Seed: 2420},
		{Name: "irs510", Inputs: 25, Gates: 236, Seed: 2510},
		{Name: "irs526", Inputs: 24, Gates: 248, Seed: 2526},
		{Name: "irs641", Inputs: 54, Gates: 294, Seed: 12641},
		{Name: "irs820", Inputs: 23, Gates: 374, Seed: 2820},
		{Name: "irs953", Inputs: 45, Gates: 440, Seed: 2953},
		{Name: "irs1196", Inputs: 32, Gates: 546, Seed: 3196},
		{Name: "irs5378", Inputs: 214, Gates: 2400, Seed: 7378, SkipIncr0: true, GuardFrac: 0.05},
		{Name: "irs13207", Inputs: 699, Gates: 5600, Seed: 29207, SkipIncr0: true, GuardFrac: 0.05},
	}
}

// SmallSuite returns the first, middle-sized members only — enough to
// exercise every experiment path in seconds. Integration tests and
// the examples use it.
func SmallSuite() []SuiteCircuit {
	full := PaperSuite()
	return []SuiteCircuit{full[0], full[1], full[5]}
}

// SuiteByName returns the named suite member.
func SuiteByName(name string) (SuiteCircuit, bool) {
	for _, s := range PaperSuite() {
		if s.Name == name {
			return s, true
		}
	}
	return SuiteCircuit{}, false
}

// SelectSuite resolves a suite selector: "small", "full" (or "paper"),
// or the name of a single suite member.
func SelectSuite(sel string) ([]SuiteCircuit, error) {
	switch strings.ToLower(sel) {
	case "small":
		return SmallSuite(), nil
	case "full", "paper":
		return PaperSuite(), nil
	}
	if sc, ok := SuiteByName(sel); ok {
		return []SuiteCircuit{sc}, nil
	}
	return nil, fmt.Errorf("unknown suite %q (want small, full, or a circuit name)", sel)
}
