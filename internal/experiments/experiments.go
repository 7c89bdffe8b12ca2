// Package experiments reproduces every table and figure of the
// paper's evaluation (Section 4). Each experiment has one entry point
// returning both structured rows (asserted on by tests and benches)
// and formatted text in the paper's layout (quoted by EXPERIMENTS.md
// and printed by `adifo repro`).
//
// The mapping to the paper is:
//
//	Table1  — ndet(u) for all 16 vectors of the lion worked example
//	Table4  — vector-set size and ADI min/max/ratio per circuit
//	Table5  — test-set sizes for orig/dynm/0dynm/incr0
//	Table6  — test-generation run times relative to orig
//	Table7  — AVE steepness relative to orig
//	Figure1 — fault coverage curves for irs420 under three orders
//
// Every experiment over suite members takes them prepared: PrepareSuite
// builds each selected member once, and Table 4, the generation runs,
// Figure 1 and the ablation share the setups. Tables 5, 6 and 7 are
// different projections of the same generation runs; RunSuite executes
// the runs once and the per-table formatters slice them.
package experiments

import (
	"fmt"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/irr"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
	"github.com/eda-go/adifo/internal/report"
	"github.com/eda-go/adifo/internal/tgen"
)

// Fixed seeds: the experiments are a pure function of these.
const (
	// USeed draws the candidate random vector set U.
	USeed = 0xADF0
	// FillSeed drives the ATPG's random fill of unspecified inputs.
	FillSeed = 0xF111
	// MaxRandomVectors is the initial size of U before truncation
	// ("We initially include in U 10,000 random input vectors").
	MaxRandomVectors = 10000
	// TargetCoverage is the truncation threshold for U ("until
	// approximately 90% of the circuit faults are detected").
	TargetCoverage = 0.90
)

// Setup is one prepared suite circuit: the irredundant netlist, its
// collapsed fault list, the sized vector set U and the accidental
// detection indices.
type Setup struct {
	Suite  gen.SuiteCircuit
	C      *circuit.Circuit
	Faults *fault.List
	U      *logic.PatternSet
	Index  *adi.Index
}

// BuildSuiteCircuit generates suite member sc and applies the
// irredundancy pass: the netlist every experiment, the grading
// service and the command-line tools evaluate under sc's name.
func BuildSuiteCircuit(sc gen.SuiteCircuit) (*circuit.Circuit, error) {
	c, _, err := irr.Make(gen.Generate(sc.Config()), irr.Options{})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", sc.Name, err)
	}
	return c, nil
}

// LoadNamedCircuit resolves a circuit name without touching the
// filesystem: an embedded benchmark (c17, s27, lion) first, then a
// synthetic suite member (irs208 … irs13207) built by
// BuildSuiteCircuit. The grading service resolves named circuits
// from requests with it, which must never read server-local files.
func LoadNamedCircuit(ref string) (*circuit.Circuit, error) {
	if c, err := benchdata.Load(ref); err == nil {
		return c, nil
	}
	if sc, ok := gen.SuiteByName(ref); ok {
		return BuildSuiteCircuit(sc)
	}
	return nil, fmt.Errorf("%q is neither an embedded circuit (%v) nor a suite name", ref, benchdata.Names())
}

// Prepare builds the suite circuit, sizes U per the paper's recipe
// and computes the ADI.
func Prepare(sc gen.SuiteCircuit) (*Setup, error) {
	c, err := BuildSuiteCircuit(sc)
	if err != nil {
		return nil, err
	}
	fl := fault.CollapsedUniverse(c)

	// Size U: simulate up to MaxRandomVectors with fault dropping,
	// stopping once TargetCoverage of the faults are detected; keep
	// only the vectors simulated up to that point.
	candidates := logic.RandomPatterns(c.NumInputs(), MaxRandomVectors, prng.New(USeed))
	sizing := fsim.RunParallelWith(fl, candidates, fsim.ParallelOptions{
		Options: fsim.Options{Mode: fsim.Drop, StopAtCoverage: TargetCoverage},
	})
	u := candidates.Slice(sizing.VectorsUsed)

	return &Setup{
		Suite:  sc,
		C:      c,
		Faults: fl,
		U:      u,
		Index:  adi.Compute(fl, u),
	}, nil
}

// CircuitRuns bundles a prepared circuit with its generation runs.
type CircuitRuns struct {
	Setup *Setup
	Runs  map[adi.OrderKind]*tgen.Result
}

// table5Orders are the orders the paper reports in Tables 5-7.
func table5Orders(sc gen.SuiteCircuit) []adi.OrderKind {
	kinds := []adi.OrderKind{adi.Orig, adi.Dynm, adi.Dynm0}
	if !sc.SkipIncr0 {
		kinds = append(kinds, adi.Incr0)
	}
	return kinds
}

// RunCircuit executes test generation for the paper's order set on
// one prepared circuit.
func RunCircuit(setup *Setup) *CircuitRuns {
	cr := &CircuitRuns{Setup: setup, Runs: map[adi.OrderKind]*tgen.Result{}}
	for _, kind := range table5Orders(setup.Suite) {
		order := setup.Index.Order(kind)
		cr.Runs[kind] = tgen.Generate(setup.Faults, order, tgen.Options{
			FillSeed: FillSeed,
			Validate: true,
		})
	}
	return cr
}

// PrepareSuite prepares every member of suite, in order.
func PrepareSuite(suite []gen.SuiteCircuit) ([]*Setup, error) {
	var out []*Setup
	for _, sc := range suite {
		setup, err := Prepare(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, setup)
	}
	return out, nil
}

// RunSuite executes the generation runs on every prepared member.
func RunSuite(setups []*Setup) []*CircuitRuns {
	var out []*CircuitRuns
	for _, setup := range setups {
		out = append(out, RunCircuit(setup))
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

// Table1Row is one (vector, ndet) pair of the worked example.
type Table1Row struct {
	U    uint64 // decimal label of the input vector
	Ndet int
}

// Table1 computes ndet(u) for every input vector of the embedded
// lion-style circuit under the exhaustive vector set, exactly the
// quantity tabulated in the paper's Table 1, plus the resulting ADI
// spread for context.
func Table1() ([]Table1Row, string, error) {
	c, err := benchdata.Load("lion")
	if err != nil {
		return nil, "", err
	}
	fl := fault.CollapsedUniverse(c)
	u := logic.ExhaustivePatterns(c.NumInputs())
	ix := adi.Compute(fl, u)

	rows := make([]Table1Row, u.Len())
	for i := range rows {
		rows[i] = Table1Row{U: u.Get(i).Decimal(), Ndet: ix.Ndet[i]}
	}

	tb := report.NewTable(
		fmt.Sprintf("Table 1: Input vectors of lion (%d collapsed faults)", fl.Len()),
		"u", "ndet(u)")
	for _, r := range rows {
		tb.AddRow(r.U, r.Ndet)
	}
	mn, mx := ix.MinMax()
	text := tb.String() + fmt.Sprintf("ADImin=%d ADImax=%d\n", mn, mx)
	return rows, text, nil
}

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

// Table4Row mirrors one row of the paper's Table 4.
type Table4Row struct {
	Circuit string
	Inputs  int
	Vectors int // |U| after truncation
	ADIMin  int
	ADIMax  int
	Ratio   float64
	Faults  int // collapsed fault count (extra context column)
}

// Table4 computes the ADI spread table over prepared suite members.
func Table4(setups []*Setup) ([]Table4Row, string) {
	var rows []Table4Row
	for _, setup := range setups {
		rows = append(rows, table4Row(setup))
	}
	return rows, FormatTable4(rows)
}

func table4Row(setup *Setup) Table4Row {
	mn, mx := setup.Index.MinMax()
	return Table4Row{
		Circuit: setup.Suite.Name,
		Inputs:  setup.C.NumInputs(),
		Vectors: setup.U.Len(),
		ADIMin:  mn,
		ADIMax:  mx,
		Ratio:   setup.Index.Ratio(),
		Faults:  setup.Faults.Len(),
	}
}

// FormatTable4 renders rows in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	tb := report.NewTable("Table 4: Accidental detection index",
		"circuit", "inp", "vec", "min", "max", "ratio", "faults")
	for _, r := range rows {
		tb.AddRow(r.Circuit, r.Inputs, r.Vectors, r.ADIMin, r.ADIMax, r.Ratio, r.Faults)
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Tables 5, 6, 7 (shared runs)
// ---------------------------------------------------------------------------

// Table5Row mirrors one row of the paper's Table 5 (test-set sizes).
type Table5Row struct {
	Circuit string
	Orig    int
	Dynm    int
	Dynm0   int
	Incr0   int // -1 when omitted, as in the paper
}

// Table5 extracts test-set sizes from the runs.
func Table5(runs []*CircuitRuns) ([]Table5Row, string) {
	var rows []Table5Row
	for _, cr := range runs {
		row := Table5Row{
			Circuit: cr.Setup.Suite.Name,
			Orig:    len(cr.Runs[adi.Orig].Tests),
			Dynm:    len(cr.Runs[adi.Dynm].Tests),
			Dynm0:   len(cr.Runs[adi.Dynm0].Tests),
			Incr0:   -1,
		}
		if r, ok := cr.Runs[adi.Incr0]; ok {
			row.Incr0 = len(r.Tests)
		}
		rows = append(rows, row)
	}
	return rows, FormatTable5(rows)
}

// FormatTable5 renders rows plus the average line of the paper.
func FormatTable5(rows []Table5Row) string {
	tb := report.NewTable("Table 5: Test generation (test-set sizes)",
		"circuit", "orig", "dynm", "0dynm", "incr0")
	sumO, sumD, sumZ, n := 0, 0, 0, 0
	for _, r := range rows {
		incr0 := "-"
		if r.Incr0 >= 0 {
			incr0 = fmt.Sprint(r.Incr0)
		}
		tb.AddRowCells([]string{r.Circuit, fmt.Sprint(r.Orig), fmt.Sprint(r.Dynm), fmt.Sprint(r.Dynm0), incr0})
		sumO += r.Orig
		sumD += r.Dynm
		sumZ += r.Dynm0
		n++
	}
	if n > 0 {
		tb.AddRowCells([]string{"average",
			fmt.Sprintf("%.1f", float64(sumO)/float64(n)),
			fmt.Sprintf("%.1f", float64(sumD)/float64(n)),
			fmt.Sprintf("%.1f", float64(sumZ)/float64(n)),
			"-"})
	}
	return tb.String()
}

// Table6Row mirrors one row of the paper's Table 6 (relative run
// times).
type Table6Row struct {
	Circuit string
	Dynm    float64 // RT_dynm / RT_orig
	Dynm0   float64 // RT_0dynm / RT_orig
}

// Table6 extracts relative run times from the runs.
func Table6(runs []*CircuitRuns) ([]Table6Row, string) {
	var rows []Table6Row
	for _, cr := range runs {
		base := cr.Runs[adi.Orig].Elapsed.Seconds()
		if base <= 0 {
			base = 1e-9
		}
		rows = append(rows, Table6Row{
			Circuit: cr.Setup.Suite.Name,
			Dynm:    cr.Runs[adi.Dynm].Elapsed.Seconds() / base,
			Dynm0:   cr.Runs[adi.Dynm0].Elapsed.Seconds() / base,
		})
	}
	return rows, FormatTable6(rows)
}

// FormatTable6 renders rows plus the average line.
func FormatTable6(rows []Table6Row) string {
	tb := report.NewTable("Table 6: Relative run times (t.gen / t.gen orig)",
		"circuit", "orig", "dynm", "0dynm")
	var sd, sz float64
	for _, r := range rows {
		tb.AddRow(r.Circuit, 1.0, r.Dynm, r.Dynm0)
		sd += r.Dynm
		sz += r.Dynm0
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		tb.AddRow("average", 1.0, sd/n, sz/n)
	}
	return tb.String()
}

// Table7Row mirrors one row of the paper's Table 7 (steepness).
type Table7Row struct {
	Circuit string
	Dynm    float64 // AVE_dynm / AVE_orig
	Dynm0   float64 // AVE_0dynm / AVE_orig
}

// Table7 extracts normalized AVE values from the runs.
func Table7(runs []*CircuitRuns) ([]Table7Row, string) {
	var rows []Table7Row
	for _, cr := range runs {
		base := cr.Runs[adi.Orig].AVE()
		if base <= 0 {
			base = 1e-9
		}
		rows = append(rows, Table7Row{
			Circuit: cr.Setup.Suite.Name,
			Dynm:    cr.Runs[adi.Dynm].AVE() / base,
			Dynm0:   cr.Runs[adi.Dynm0].AVE() / base,
		})
	}
	return rows, FormatTable7(rows)
}

// FormatTable7 renders rows plus the average line.
func FormatTable7(rows []Table7Row) string {
	tb := report.NewTable("Table 7: Steepness of fault coverage curves (AVE / AVE orig)",
		"circuit", "orig", "dynm", "0dynm")
	var sd, sz float64
	for _, r := range rows {
		tb.AddRow(r.Circuit, 1.0, r.Dynm, r.Dynm0)
		sd += r.Dynm
		sz += r.Dynm0
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		tb.AddRow("average", 1.0, sd/n, sz/n)
	}
	return tb.String()
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

// Figure1Circuit is the circuit plotted in the paper's Figure 1.
const Figure1Circuit = "irs420"

// Figure1 renders the fault coverage curves of the named circuit (by
// default Figure1Circuit) for the orig, dynm and 0dynm orders, using
// the paper's o/d/z markers. It returns the three curves and the
// ASCII plot. The circuit's setup is taken from setups when they hold
// it and prepared otherwise.
func Figure1(name string, setups []*Setup) (map[adi.OrderKind][]int, string, error) {
	var setup *Setup
	for _, s := range setups {
		if s.Suite.Name == name {
			setup = s
			break
		}
	}
	if setup == nil {
		sc, ok := gen.SuiteByName(name)
		if !ok {
			return nil, "", fmt.Errorf("experiments: unknown suite circuit %q", name)
		}
		var err error
		if setup, err = Prepare(sc); err != nil {
			return nil, "", err
		}
	}
	cr := RunCircuit(setup)
	curves := map[adi.OrderKind][]int{
		adi.Orig:  cr.Runs[adi.Orig].Curve,
		adi.Dynm:  cr.Runs[adi.Dynm].Curve,
		adi.Dynm0: cr.Runs[adi.Dynm0].Curve,
	}
	return curves, FormatFigure1(name, curves), nil
}

// FormatFigure1 renders the three curves as an ASCII plot.
func FormatFigure1(name string, curves map[adi.OrderKind][]int) string {
	mk := func(kind adi.OrderKind, marker byte) report.Series {
		xs, ys := tgen.CoveragePoints(curves[kind])
		return report.Series{Marker: marker, Label: kind.String(), X: xs, Y: ys}
	}
	return report.Plot(
		fmt.Sprintf("Figure 1: Fault coverage curve for %s", name),
		64, 20,
		mk(adi.Orig, 'o'), mk(adi.Dynm, 'd'), mk(adi.Dynm0, 'z'))
}
