package reorder

import (
	"testing"
	"testing/quick"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
	"github.com/eda-go/adifo/internal/tgen"
)

func setup(t testing.TB, seed uint64) (*fault.List, *logic.PatternSet) {
	t.Helper()
	c := gen.Generate(gen.Config{Name: "r", Inputs: 8, Gates: 60, Seed: seed})
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 48, prng.New(seed^0xff))
	return fl, ps
}

func TestGreedyPermutation(t *testing.T) {
	fl, ps := setup(t, 3)
	r := Greedy(fl, ps)
	if len(r.Perm) != ps.Len() {
		t.Fatalf("perm length %d, want %d", len(r.Perm), ps.Len())
	}
	seen := make([]bool, ps.Len())
	for _, u := range r.Perm {
		if u < 0 || u >= ps.Len() || seen[u] {
			t.Fatalf("not a permutation: %v", r.Perm)
		}
		seen[u] = true
	}
}

func TestGreedyFirstPickIsArgmax(t *testing.T) {
	fl, ps := setup(t, 5)
	r := Greedy(fl, ps)
	// The first reordered test must be one that detects the maximum
	// number of faults.
	res := fsim.Run(fl, ps, fsim.Options{Mode: fsim.NoDrop})
	best := 0
	for u := 0; u < ps.Len(); u++ {
		if res.Ndet[u] > best {
			best = res.Ndet[u]
		}
	}
	if r.Curve[0] != best {
		t.Fatalf("first pick detects %d, max is %d", r.Curve[0], best)
	}
}

func TestGreedyCurveMonotoneAndComplete(t *testing.T) {
	fl, ps := setup(t, 7)
	r := Greedy(fl, ps)
	prev := 0
	for i, n := range r.Curve {
		if n < prev {
			t.Fatalf("curve decreases at %d: %v", i, r.Curve)
		}
		prev = n
	}
	if prev != r.Detected {
		t.Fatalf("curve ends at %d, Detected = %d", prev, r.Detected)
	}
	// Total must match an independent drop-mode simulation.
	res := fsim.Run(fl, ps, fsim.Options{Mode: fsim.Drop})
	if r.Detected != res.DetectedCount() {
		t.Fatalf("Detected = %d, reference %d", r.Detected, res.DetectedCount())
	}
}

func TestGreedyNeverFlattensCurve(t *testing.T) {
	// AVE of the greedy order must be <= AVE of the original order
	// (greedy is the optimal single-step choice; across our seeds it
	// should never lose to the identity order).
	for seed := uint64(1); seed <= 6; seed++ {
		fl, ps := setup(t, seed)
		r := Greedy(fl, ps)

		origCurve := coverageCurve(fl, ps)
		if tgen.AVE(r.Curve) > tgen.AVE(origCurve)+1e-9 {
			t.Fatalf("seed %d: greedy AVE %.3f worse than original %.3f",
				seed, tgen.AVE(r.Curve), tgen.AVE(origCurve))
		}
	}
}

// coverageCurve computes n(i) for the identity order.
func coverageCurve(fl *fault.List, ps *logic.PatternSet) []int {
	inc := fsim.NewIncremental(fl, circuit.Compile(fl.Circuit))
	var curve []int
	det := 0
	for u := 0; u < ps.Len(); u++ {
		det += len(inc.SimulateVector(ps.Get(u)))
		curve = append(curve, det)
	}
	return curve
}

func TestQuickGreedyInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		fl, ps := setup(t, seed)
		r := Greedy(fl, ps)
		// Permutation property.
		seen := make([]bool, ps.Len())
		for _, u := range r.Perm {
			if u < 0 || u >= ps.Len() || seen[u] {
				return false
			}
			seen[u] = true
		}
		// Greedy dominates the identity order prefix-wise at the
		// first position.
		orig := coverageCurve(fl, ps)
		if len(orig) > 0 && len(r.Curve) > 0 && r.Curve[0] < orig[0] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
