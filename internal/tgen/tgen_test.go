package tgen

import (
	"context"
	"math"
	"testing"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
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

func c17Faults(t testing.TB) *fault.List {
	t.Helper()
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	return fault.CollapsedUniverse(c)
}

func identityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestGenerateFullCoverageC17(t *testing.T) {
	fl := c17Faults(t)
	r := Generate(fl, identityOrder(fl.Len()), Options{Validate: true, FillSeed: 1})
	// c17 is irredundant: every collapsed fault must be detected.
	if r.Detected() != fl.Len() {
		t.Fatalf("detected %d of %d faults", r.Detected(), fl.Len())
	}
	if len(r.Redundant) != 0 || len(r.Aborted) != 0 {
		t.Fatalf("unexpected redundant=%v aborted=%v", r.Redundant, r.Aborted)
	}
	if r.Coverage() != 1.0 {
		t.Fatalf("coverage = %v", r.Coverage())
	}
	if len(r.Tests) == 0 || len(r.Tests) > fl.Len() {
		t.Fatalf("test set size %d out of range", len(r.Tests))
	}
	if len(r.TargetOf) != len(r.Tests) || len(r.Curve) != len(r.Tests) {
		t.Fatal("parallel slices out of sync")
	}
}

func TestGeneratedSetDetectsEverythingUnderResimulation(t *testing.T) {
	fl := c17Faults(t)
	r := Generate(fl, identityOrder(fl.Len()), Options{Validate: true, FillSeed: 7})
	// Re-simulate the final test set from scratch; it must detect the
	// same fault set.
	ps := logic.NewPatternSet(fl.Circuit.NumInputs())
	for _, v := range r.Tests {
		ps.Append(v)
	}
	res := fsim.Run(fl, ps, fsim.Options{Mode: fsim.Drop})
	if res.DetectedCount() != r.Detected() {
		t.Fatalf("resimulation detects %d, driver reported %d", res.DetectedCount(), r.Detected())
	}
}

func TestCurveIsMonotone(t *testing.T) {
	fl := c17Faults(t)
	r := Generate(fl, identityOrder(fl.Len()), Options{FillSeed: 3})
	prev := 0
	for i, n := range r.Curve {
		if n <= prev {
			// Every retained test must detect at least one new fault
			// (its own target at minimum).
			t.Fatalf("curve not strictly increasing at %d: %v", i, r.Curve)
		}
		prev = n
	}
}

func TestDeterminism(t *testing.T) {
	fl := c17Faults(t)
	a := Generate(fl, identityOrder(fl.Len()), Options{FillSeed: 42})
	b := Generate(fl, identityOrder(fl.Len()), Options{FillSeed: 42})
	if len(a.Tests) != len(b.Tests) {
		t.Fatal("test set size not deterministic")
	}
	for i := range a.Tests {
		if a.Tests[i].String() != b.Tests[i].String() {
			t.Fatalf("test %d differs across identical runs", i)
		}
	}
}

func TestFillSeedChangesOutcome(t *testing.T) {
	// Not a strict requirement, but with different fills the test
	// sets should not be byte-identical for every seed pair; guard
	// against the seed being ignored.
	fl := c17Faults(t)
	a := Generate(fl, identityOrder(fl.Len()), Options{FillSeed: 1})
	b := Generate(fl, identityOrder(fl.Len()), Options{FillSeed: 2})
	same := len(a.Tests) == len(b.Tests)
	if same {
		for i := range a.Tests {
			if a.Tests[i].String() != b.Tests[i].String() {
				same = false
				break
			}
		}
	}
	if same {
		t.Skip("seeds 1 and 2 coincide on this tiny circuit; acceptable")
	}
}

func TestRedundantFaultHandling(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
n = NOT(a)
y = OR(a, n)
z = AND(y, b)
`
	c, err := circuit.ParseBenchString("red", src)
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.CollapsedUniverse(c)
	r := Generate(fl, identityOrder(fl.Len()), Options{Validate: true})
	if len(r.Redundant) == 0 {
		t.Fatal("expected redundant faults")
	}
	if r.Detected()+len(r.Redundant) != fl.Len() {
		t.Fatalf("detected %d + redundant %d != %d faults",
			r.Detected(), len(r.Redundant), fl.Len())
	}
}

func TestAVEHandComputed(t *testing.T) {
	// Curve: test 1 detects 6 faults, test 2 detects 3, test 3
	// detects 1. AVE = (1*6 + 2*3 + 3*1) / 10 = 1.5.
	curve := []int{6, 9, 10}
	if got := AVE(curve); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("AVE = %v, want 1.5", got)
	}
}

func TestAVEEdgeCases(t *testing.T) {
	if AVE(nil) != 0 {
		t.Fatal("AVE(nil) != 0")
	}
	if AVE([]int{0}) != 0 {
		t.Fatal("AVE of zero-detection curve != 0")
	}
	// A single test detecting everything: AVE = 1 (steepest
	// possible).
	if AVE([]int{17}) != 1 {
		t.Fatal("single-test AVE != 1")
	}
}

func TestAVESteeperIsSmaller(t *testing.T) {
	steep := []int{9, 10}   // 9 faults up front
	shallow := []int{1, 10} // 1 fault up front
	if AVE(steep) >= AVE(shallow) {
		t.Fatalf("steep %v >= shallow %v", AVE(steep), AVE(shallow))
	}
}

func TestCoveragePoints(t *testing.T) {
	xs, ys := CoveragePoints([]int{5, 8, 10})
	if len(xs) != 3 || len(ys) != 3 {
		t.Fatalf("points: %v %v", xs, ys)
	}
	if xs[2] != 100 || ys[2] != 100 {
		t.Fatalf("final point must be (100,100), got (%v,%v)", xs[2], ys[2])
	}
	if math.Abs(ys[0]-50) > 1e-12 {
		t.Fatalf("first y = %v, want 50", ys[0])
	}
	if x, y := CoveragePoints(nil); x != nil || y != nil {
		t.Fatal("empty curve must give nil points")
	}
}

func TestOrderedGenerationUsesADIOrders(t *testing.T) {
	// End-to-end smoke: all six orders produce full coverage on c17
	// and valid curves.
	fl := c17Faults(t)
	u := logic.ExhaustivePatterns(fl.Circuit.NumInputs())
	ix := adi.Compute(fl, u)
	for _, kind := range adi.AllOrders() {
		r := Generate(fl, ix.Order(kind), Options{Validate: true, FillSeed: 5})
		if r.Detected() != fl.Len() {
			t.Fatalf("%v: detected %d of %d", kind, r.Detected(), fl.Len())
		}
		if r.AVE() <= 0 {
			t.Fatalf("%v: AVE = %v", kind, r.AVE())
		}
	}
}

// TestGeneratePanicsOnBadOrder: an order that is not a permutation is
// an error from GenerateContext and a panic from Generate.
func TestGeneratePanicsOnBadOrder(t *testing.T) {
	fl := c17Faults(t)
	cases := [][]int{
		{0, 1, 2},                            // too short
		append(identityOrder(fl.Len()-1), 0), // duplicate
	}
	for _, order := range cases {
		if r, err := GenerateContext(context.Background(), fl, order, Options{}); err == nil || r != nil {
			t.Fatalf("GenerateContext(%v) = %v, %v; want no result and an error", order, r, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad order did not panic")
				}
			}()
			Generate(fl, order, Options{})
		}()
	}
}

func TestStatsAccounting(t *testing.T) {
	fl := c17Faults(t)
	r := Generate(fl, identityOrder(fl.Len()), Options{FillSeed: 1})
	if r.AtpgCalls < len(r.Tests) {
		t.Fatalf("AtpgCalls %d < tests %d", r.AtpgCalls, len(r.Tests))
	}
	if r.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
}

// TestProgressCallback: the per-target progress feed is monotone,
// consistent with the final result, and its last event matches the
// run's totals.
func TestProgressCallback(t *testing.T) {
	fl := c17Faults(t)
	order := identityOrder(fl.Len())

	var events []Progress
	r := Generate(fl, order, Options{Progress: func(p Progress) { events = append(events, p) }})
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	prev := Progress{}
	for i, p := range events {
		if p.Targets != fl.Len() {
			t.Fatalf("event %d: targets %d, want %d", i, p.Targets, fl.Len())
		}
		if p.Done <= prev.Done || p.Tests < prev.Tests || p.Detected < prev.Detected || p.AtpgCalls <= prev.AtpgCalls {
			t.Fatalf("event %d not monotone: %+v after %+v", i, p, prev)
		}
		prev = p
	}
	last := events[len(events)-1]
	if last.Tests != len(r.Tests) || last.Detected != r.Detected() || last.AtpgCalls != r.AtpgCalls {
		t.Fatalf("last event %+v does not match result (%d tests, %d detected, %d calls)",
			last, len(r.Tests), r.Detected(), r.AtpgCalls)
	}
	if last.Active != fl.Len()-r.Detected()-len(r.Redundant) {
		t.Fatalf("last event active %d, want %d", last.Active, fl.Len()-r.Detected()-len(r.Redundant))
	}
}
