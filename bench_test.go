// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure. Run them with
//
//	go test -bench=. -benchmem
//
// By default the generation-heavy experiments (Tables 5-7, Figure 1)
// run on the paper's twelve small and medium circuits, skipping
// irs5378 and irs13207; set ADIFO_SUITE=full to include them, or
// ADIFO_SUITE=small for a three-circuit smoke run. Table text is
// printed once per benchmark so the run doubles as a report.
package adifo_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"github.com/eda-go/adifo/internal/experiments"
	"github.com/eda-go/adifo/internal/gen"
)

// benchSuite resolves the circuit suite from ADIFO_SUITE.
func benchSuite() []gen.SuiteCircuit {
	switch os.Getenv("ADIFO_SUITE") {
	case "full":
		return gen.PaperSuite()
	case "small":
		return gen.SmallSuite()
	default:
		full := gen.PaperSuite()
		return full[:len(full)-2] // all but irs5378 and irs13207
	}
}

var (
	runsOnce sync.Once
	runsVal  []*experiments.CircuitRuns
	runsErr  error
)

// sharedRuns executes the Table 5/6/7 generation runs once per test
// binary; the three table benchmarks are projections of the same
// runs, exactly as in the paper.
func sharedRuns() ([]*experiments.CircuitRuns, error) {
	runsOnce.Do(func() {
		var setups []*experiments.Setup
		if setups, runsErr = experiments.PrepareSuite(benchSuite()); runsErr == nil {
			runsVal = experiments.RunSuite(setups)
		}
	})
	return runsVal, runsErr
}

// BenchmarkTable1 regenerates the worked example: ndet(u) for every
// input vector of the lion-style circuit.
func BenchmarkTable1(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		var err error
		_, text, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkTable4 regenerates the ADI spread table: vector-set size,
// ADImin, ADImax and their ratio per circuit.
func BenchmarkTable4(b *testing.B) {
	suite := benchSuite()
	var text string
	for i := 0; i < b.N; i++ {
		setups, err := experiments.PrepareSuite(suite)
		if err != nil {
			b.Fatal(err)
		}
		_, text = experiments.Table4(setups)
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkTable5 regenerates the test-set size comparison across the
// orig, dynm, 0dynm and incr0 fault orders.
func BenchmarkTable5(b *testing.B) {
	runs, err := sharedRuns()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		_, text = experiments.Table5(runs)
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkTable6 regenerates the relative run-time table.
func BenchmarkTable6(b *testing.B) {
	runs, err := sharedRuns()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		_, text = experiments.Table6(runs)
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkTable7 regenerates the coverage-curve steepness (AVE)
// table.
func BenchmarkTable7(b *testing.B) {
	runs, err := sharedRuns()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		_, text = experiments.Table7(runs)
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkFigure1 regenerates the fault coverage curve plot.
func BenchmarkFigure1(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		var err error
		_, text, err = experiments.Figure1(experiments.Figure1Circuit, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkGenerationRuns measures the end-to-end generation runs
// themselves (prepare + four orders per circuit); Tables 5-7 above
// only project its output.
func BenchmarkGenerationRuns(b *testing.B) {
	suite := gen.SmallSuite()
	for i := 0; i < b.N; i++ {
		setups, err := experiments.PrepareSuite(suite)
		if err != nil {
			b.Fatal(err)
		}
		experiments.RunSuite(setups)
	}
}

// BenchmarkAblation runs the design-choice ablations of DESIGN.md:
// static vs dynamic orders, n-detection ADI estimation, and a reduced
// vector budget, on the small suite.
func BenchmarkAblation(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		setups, err := experiments.PrepareSuite(gen.SmallSuite())
		if err != nil {
			b.Fatal(err)
		}
		_, text = experiments.Ablation(setups)
	}
	b.StopTimer()
	fmt.Println(text)
}
