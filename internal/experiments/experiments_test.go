package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/gen"
)

// TestLoadNamedEmbedded resolves an embedded benchmark by name.
func TestLoadNamedEmbedded(t *testing.T) {
	c, err := LoadNamedCircuit("c17")
	if err != nil || c.Name != "c17" || c.NumInputs() != 5 {
		t.Fatalf("c17: %v, %v", c, err)
	}
}

// TestLoadNamedSuiteMember resolves a suite name to the same netlist
// BuildSuiteCircuit makes.
func TestLoadNamedSuiteMember(t *testing.T) {
	c, err := LoadNamedCircuit("irs208")
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := gen.SuiteByName("irs208")
	built, err := BuildSuiteCircuit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInputs() != 19 || circuit.BenchString(c) != circuit.BenchString(built) {
		t.Fatalf("irs208 by name differs from BuildSuiteCircuit (%d inputs)", c.NumInputs())
	}
}

// TestLoadNamedUnknown refuses anything that is not a name, a .bench
// file path included, without reading the filesystem.
func TestLoadNamedUnknown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.bench")
	if err := os.WriteFile(path, []byte("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"no-such-thing", path} {
		if _, err := LoadNamedCircuit(ref); err == nil {
			t.Errorf("LoadNamedCircuit(%q) resolved", ref)
		}
	}
}

func TestTable1(t *testing.T) {
	rows, text, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// The lion worked example enumerates all 16 input vectors.
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for i, r := range rows {
		if r.U != uint64(i) {
			t.Fatalf("row %d: vector label %d", i, r.U)
		}
		// Every vector of a 4-input circuit with ~36 faults detects
		// something, and never more than the whole fault set.
		if r.Ndet <= 0 || r.Ndet > 60 {
			t.Fatalf("row %d: ndet = %d out of plausible range", i, r.Ndet)
		}
	}
	if !strings.Contains(text, "Table 1") || !strings.Contains(text, "ndet(u)") {
		t.Fatalf("text missing headers:\n%s", text)
	}
	// The spread must be non-trivial for the example to make the
	// paper's point.
	min, max := rows[0].Ndet, rows[0].Ndet
	for _, r := range rows {
		if r.Ndet < min {
			min = r.Ndet
		}
		if r.Ndet > max {
			max = r.Ndet
		}
	}
	if max == min {
		t.Fatal("ndet is constant; worked example degenerate")
	}
}

func TestPrepareSmallCircuit(t *testing.T) {
	sc, _ := gen.SuiteByName("irs208")
	setup, err := Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	if setup.C.NumInputs() != sc.Inputs {
		t.Fatalf("inputs = %d, want %d", setup.C.NumInputs(), sc.Inputs)
	}
	if setup.U.Len() == 0 || setup.U.Len() > MaxRandomVectors {
		t.Fatalf("|U| = %d", setup.U.Len())
	}
	// U must reach roughly the target coverage (block granularity
	// means it can overshoot, never badly undershoot).
	detected := setup.Index.NumDetected()
	if frac := float64(detected) / float64(setup.Faults.Len()); frac < TargetCoverage-0.02 {
		t.Fatalf("U detects only %.1f%% of faults", 100*frac)
	}
	mn, mx := setup.Index.MinMax()
	if mn < 1 || mx < mn {
		t.Fatalf("ADI spread %d..%d", mn, mx)
	}
}

func TestTable4SmallSuite(t *testing.T) {
	rows, text, err := Table4(gen.SmallSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(gen.SmallSuite()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 1 {
			t.Errorf("%s: ratio %.2f < 1", r.Circuit, r.Ratio)
		}
		if r.ADIMin < 1 || r.ADIMax < r.ADIMin {
			t.Errorf("%s: ADI spread %d..%d", r.Circuit, r.ADIMin, r.ADIMax)
		}
		if r.Vectors <= 0 {
			t.Errorf("%s: no vectors", r.Circuit)
		}
	}
	if !strings.Contains(text, "Table 4") {
		t.Fatalf("text:\n%s", text)
	}
}

// TestTables567QualitativeShape is the headline reproduction check on
// the small suite: the orderings the paper reports must hold in
// aggregate — dynm and 0dynm beat orig on test-set size, incr0 loses,
// dynm gives the steepest average coverage curve.
func TestTables567QualitativeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("generation runs take a few seconds")
	}
	runs, err := RunSuite(gen.SmallSuite())
	if err != nil {
		t.Fatal(err)
	}

	rows5, text5 := Table5(runs)
	var sumOrig, sumDynm, sumDynm0, sumIncr0, nIncr0 int
	for _, r := range rows5 {
		sumOrig += r.Orig
		sumDynm += r.Dynm
		sumDynm0 += r.Dynm0
		if r.Incr0 >= 0 {
			sumIncr0 += r.Incr0
			nIncr0++
		}
	}
	if sumDynm0 >= sumOrig {
		t.Errorf("0dynm average (%d) not smaller than orig (%d)\n%s", sumDynm0, sumOrig, text5)
	}
	if sumDynm >= sumOrig {
		t.Errorf("dynm average (%d) not smaller than orig (%d)\n%s", sumDynm, sumOrig, text5)
	}
	if nIncr0 > 0 && sumIncr0 <= sumOrig {
		t.Errorf("incr0 average (%d) not larger than orig (%d)\n%s", sumIncr0, sumOrig, text5)
	}

	_, text6 := Table6(runs)
	if !strings.Contains(text6, "average") {
		t.Fatalf("table 6 missing average row:\n%s", text6)
	}

	rows7, text7 := Table7(runs)
	var sumD, sumZ float64
	for _, r := range rows7 {
		sumD += r.Dynm
		sumZ += r.Dynm0
	}
	n := float64(len(rows7))
	if sumD/n >= 1.0 {
		t.Errorf("dynm average steepness %.3f not below 1\n%s", sumD/n, text7)
	}
	if sumZ/n >= 1.05 {
		t.Errorf("0dynm average steepness %.3f far above 1\n%s", sumZ/n, text7)
	}
	// Full coverage sanity: every run detects every fault (suite
	// circuits are irredundant) up to aborted stragglers.
	for _, cr := range runs {
		for kind, r := range cr.Runs {
			missed := cr.Setup.Faults.Len() - r.Detected() - len(r.Redundant)
			if missed > len(r.Aborted)+2 {
				t.Errorf("%s/%v: %d faults unexplained", cr.Setup.Suite.Name, kind, missed)
			}
		}
	}
}

func TestFigure1SmallCircuit(t *testing.T) {
	if testing.Short() {
		t.Skip("generation runs take a few seconds")
	}
	curves, text, err := Figure1("irs298")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []adi.OrderKind{adi.Orig, adi.Dynm, adi.Dynm0} {
		if len(curves[kind]) == 0 {
			t.Fatalf("curve %v empty", kind)
		}
	}
	for _, marker := range []string{"o - orig", "d - dynm", "z - 0dynm"} {
		if !strings.Contains(text, marker) {
			t.Fatalf("legend entry %q missing:\n%s", marker, text)
		}
	}
}

func TestFigure1UnknownCircuit(t *testing.T) {
	if _, _, err := Figure1("nope"); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

func TestFormattersHandleEmpty(t *testing.T) {
	if s := FormatTable5(nil); !strings.Contains(s, "circuit") {
		t.Fatal("empty table 5 must still render headers")
	}
	if s := FormatTable6(nil); !strings.Contains(s, "circuit") {
		t.Fatal("empty table 6 must still render headers")
	}
	if s := FormatTable7(nil); !strings.Contains(s, "circuit") {
		t.Fatal("empty table 7 must still render headers")
	}
	if s := FormatTable4(nil); !strings.Contains(s, "circuit") {
		t.Fatal("empty table 4 must still render headers")
	}
}

func TestTable5SkipIncr0Rendering(t *testing.T) {
	rows := []Table5Row{{Circuit: "x", Orig: 10, Dynm: 9, Dynm0: 8, Incr0: -1}}
	s := FormatTable5(rows)
	if !strings.Contains(s, "-") {
		t.Fatalf("omitted incr0 must render as '-':\n%s", s)
	}
}

func TestAblationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("generation runs take a few seconds")
	}
	rows, text, err := Ablation(gen.SmallSuite()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationVariants()) {
		t.Fatalf("rows = %d, want one per variant", len(rows))
	}
	for _, r := range rows {
		if r.Tests <= 0 || r.AVE <= 0 {
			t.Errorf("%s/%s: degenerate measurement %+v", r.Circuit, r.Variant, r)
		}
	}
	if !strings.Contains(text, "Ablation") {
		t.Fatalf("text:\n%s", text)
	}
}
