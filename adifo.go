package adifo

import (
	"fmt"
	"io"
	"os"

	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/experiments"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// Core domain types, aliased from the internal packages so external
// consumers can name them (and everything internal stays internal —
// the aliases are the only door).
type (
	// Circuit is a levelized combinational gate-level netlist.
	Circuit = circuit.Circuit
	// CircuitStats summarizes a circuit's structure (gates, levels,
	// fanin/fanout); see Circuit.ComputeStats.
	CircuitStats = circuit.Stats
	// Fault is one single stuck-at fault site.
	Fault = fault.Fault
	// FaultList is an ordered fault set over one circuit.
	FaultList = fault.List
	// Vector is one input vector, one byte (0 or 1) per primary input.
	Vector = logic.Vector
	// PatternSet is a bit-parallel set of input vectors, simulated 64
	// at a time.
	PatternSet = logic.PatternSet
	// Bitset is a fixed-width bitset; detection sets D(f) are Bitsets
	// over vector indices.
	Bitset = logic.Bitset
)

// Fixed experiment parameters of the paper's evaluation (Section 4),
// exported so external consumers can reproduce the published setup.
const (
	// DefaultUSeed draws the candidate random vector set U.
	DefaultUSeed uint64 = experiments.USeed
	// DefaultFillSeed drives the ATPG's random fill of unspecified
	// inputs.
	DefaultFillSeed uint64 = experiments.FillSeed
	// DefaultUBudget is the initial size of U before truncation ("We
	// initially include in U 10,000 random input vectors").
	DefaultUBudget = experiments.MaxRandomVectors
	// DefaultTargetCoverage is the truncation threshold for U ("until
	// approximately 90% of the circuit faults are detected").
	DefaultTargetCoverage = experiments.TargetCoverage
)

// LoadCircuit resolves a circuit reference, trying in order: an
// embedded benchmark name (c17, s27, lion), a synthetic suite name
// (irs208 … irs13207, generated and made irredundant exactly as the
// paper's experiments do), and finally a path to an ISCAS-89 style
// .bench file.
func LoadCircuit(ref string) (*Circuit, error) {
	if c, err := experiments.LoadNamedCircuit(ref); err == nil {
		return c, nil
	}
	f, err := os.Open(ref)
	if err != nil {
		return nil, fmt.Errorf("%q is neither an embedded circuit (%v), a suite name, nor a readable file: %w",
			ref, benchdata.Names(), err)
	}
	defer f.Close()
	return circuit.ParseBench(ref, f)
}

// IsNamedCircuit reports whether ref names an embedded benchmark or a
// synthetic suite circuit — i.e. whether LoadCircuit would resolve it
// without touching the filesystem. Cheap: no circuit is built.
func IsNamedCircuit(ref string) bool {
	if _, err := benchdata.Source(ref); err == nil {
		return true
	}
	_, ok := gen.SuiteByName(ref)
	return ok
}

// CircuitNames lists the embedded benchmark names LoadCircuit accepts.
func CircuitNames() []string { return benchdata.Names() }

// ParseBench parses an ISCAS-89 style .bench netlist; sequential
// designs are converted to their full-scan combinational core
// (flip-flops become pseudo inputs/outputs).
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return circuit.ParseBench(name, r)
}

// ParseBenchString is ParseBench over in-memory netlist text.
func ParseBenchString(name, src string) (*Circuit, error) {
	return circuit.ParseBenchString(name, src)
}

// BenchString renders a circuit back to .bench text.
func BenchString(c *Circuit) string { return circuit.BenchString(c) }

// Faults returns the equivalence-collapsed single stuck-at fault
// universe of c — the paper's target fault set F.
func Faults(c *Circuit) *FaultList { return fault.CollapsedUniverse(c) }

// AllFaults returns the uncollapsed stuck-at universe (two faults per
// line); Faults is the collapsed set actually targeted.
func AllFaults(c *Circuit) *FaultList { return fault.Universe(c) }

// RandomPatterns returns n uniformly random vectors for a circuit with
// the given input count, drawn from the library PRNG: equal seeds give
// bit-identical sets on every host.
func RandomPatterns(inputs, n int, seed uint64) *PatternSet {
	return logic.RandomPatterns(inputs, n, prng.New(seed))
}

// ExhaustivePatterns returns all 2^inputs vectors (inputs <= 20).
func ExhaustivePatterns(inputs int) *PatternSet {
	return logic.ExhaustivePatterns(inputs)
}

// NewPatternSet returns an empty pattern set for a circuit with the
// given input count; use Append to add vectors (e.g. a generated test
// set to re-grade or reorder).
func NewPatternSet(inputs int) *PatternSet { return logic.NewPatternSet(inputs) }
