package fsim

import (
	"fmt"
	"slices"
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// runOneVector is SimulateVector's reference: Run in NoDrop mode over
// the alive faults of fl with a one-vector pattern set. It returns the
// indices in fl of the detected faults, in increasing order.
func runOneVector(fl *fault.List, alive []bool, v logic.Vector) []int {
	sub := &fault.List{Circuit: fl.Circuit}
	var idx []int
	for fi, ok := range alive {
		if ok {
			sub.Faults = append(sub.Faults, fl.Faults[fi])
			idx = append(idx, fi)
		}
	}
	ps := logic.NewPatternSet(len(v))
	ps.Append(v)
	res := Run(sub, ps, Options{Mode: NoDrop})
	var det []int
	for i, fi := range idx {
		if res.Detected(i) {
			det = append(det, fi)
		}
	}
	return det
}

// splitActivated partitions the faults of fl into those v activates
// (the good value of the fault line differs from the stuck value) and
// the rest, evaluating the good machine gate by gate.
func splitActivated(fl *fault.List, v logic.Vector) (act, rest []int) {
	c := fl.Circuit
	good := naiveValues(c, fault.Fault{Gate: -1}, v, false)
	for fi, f := range fl.Faults {
		line := f.Gate
		if f.Pin != fault.StemPin {
			line = c.Gates[f.Gate].Fanin[f.Pin]
		}
		if good[line] != f.SA {
			act = append(act, fi)
		} else {
			rest = append(rest, fi)
		}
	}
	return act, rest
}

// checkSimulateVector runs SimulateVector on a simulator whose alive
// faults are exactly alive and compares it with the reference.
func checkSimulateVector(t *testing.T, ctx string, fl *fault.List, alive []bool, v logic.Vector) {
	t.Helper()
	inc := NewIncremental(fl, circuit.Compile(fl.Circuit))
	for fi, ok := range alive {
		if !ok {
			inc.Drop(fi)
		}
	}
	before := inc.Remaining()
	got := inc.SimulateVector(v)
	if want := runOneVector(fl, alive, v); !slices.Equal(got, want) {
		t.Fatalf("%s: SimulateVector dropped %v, reference detects %v", ctx, got, want)
	}
	if inc.Remaining() != before-len(got) {
		t.Fatalf("%s: Remaining %d after dropping %d of %d", ctx, inc.Remaining(), len(got), before)
	}
	for _, fi := range got {
		if inc.Alive(fi) {
			t.Fatalf("%s: detected fault %d still alive", ctx, fi)
		}
	}
}

// TestIncrementalMatchesBatch checks the per-test drop two ways. A
// vector sequence must drop exactly the faults a batch Drop run
// detects. And one vector against alive subsets whose activated faults
// number 0, 63, 64, 65 and all of them (over 128 on the generated
// netlist: three words, the last one partial) must drop exactly what
// a one-vector NoDrop Run over the subset detects. Each subset also
// keeps half of the faults the vector does not activate alive.
func TestIncrementalMatchesBatch(t *testing.T) {
	c17 := parse(t, "c17", c17Bench)
	big := gen.Generate(gen.Config{Name: "inc", Inputs: 24, Gates: 300, Seed: 11})
	cases := []struct {
		name string
		fl   *fault.List
		wide bool // every vector must activate more than 128 faults
	}{
		{"c17/full", fault.Universe(c17), false},
		{"gen/full", fault.Universe(big), true},
		{"gen/collapsed", fault.CollapsedUniverse(big), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := tc.fl
			ps := logic.RandomPatterns(fl.Circuit.NumInputs(), 40, prng.New(9))

			inc := NewIncremental(fl, circuit.Compile(fl.Circuit))
			var dropped []int
			for u := 0; u < ps.Len(); u++ {
				dropped = append(dropped, inc.SimulateVector(ps.Get(u))...)
			}
			batch := Run(fl, ps, Options{Mode: Drop})
			if len(dropped) != batch.DetectedCount() {
				t.Fatalf("incremental detected %d, batch %d", len(dropped), batch.DetectedCount())
			}
			if inc.Remaining() != fl.Len()-batch.DetectedCount() {
				t.Fatalf("Remaining = %d", inc.Remaining())
			}
			for fi := range fl.Faults {
				if batch.Detected(fi) == inc.Alive(fi) {
					t.Fatalf("fault %d: batch detected=%v but incremental alive=%v",
						fi, batch.Detected(fi), inc.Alive(fi))
				}
			}

			rng := prng.New(17)
			for u := 0; u < 4; u++ {
				v := ps.Get(u)
				act, rest := splitActivated(fl, v)
				if tc.wide && len(act) <= 128 {
					t.Fatalf("vector %d activates %d faults, want over 128", u, len(act))
				}
				for _, n := range []int{0, 63, 64, 65, len(act)} {
					if n > len(act) {
						continue
					}
					alive := make([]bool, fl.Len())
					for _, i := range rng.Perm(len(act))[:n] {
						alive[act[i]] = true
					}
					for _, i := range rng.Perm(len(rest))[:len(rest)/2] {
						alive[rest[i]] = true
					}
					checkSimulateVector(t, fmt.Sprintf("vector %d, %d activated", u, n), fl, alive, v)
				}
			}
		})
	}
}

// FuzzSimulateVector diffs the per-test drop against the one-vector
// NoDrop reference on generated netlists of 2–31 inputs and 1–400
// gates, over the full or the collapsed universe (the low bit of
// aliveSeed). aliveSeed also draws the alive density, the alive subset
// and 1–16 vectors, which are applied in sequence so that each one
// sees the faults the earlier ones left.
func FuzzSimulateVector(f *testing.F) {
	f.Fuzz(func(t *testing.T, size uint16, seed, aliveSeed uint64, nvec uint8) {
		c := gen.Generate(gen.Config{Name: "fz", Inputs: 2 + int(size/400)%30, Gates: 1 + int(size)%400, Seed: seed})
		fl := fault.Universe(c)
		if aliveSeed&1 != 0 {
			fl = fault.CollapsedUniverse(c)
		}
		rng := prng.New(aliveSeed)
		density := rng.Float64()
		alive := make([]bool, fl.Len())
		inc := NewIncremental(fl, circuit.Compile(c))
		for fi := range alive {
			alive[fi] = rng.Float64() < density
			if !alive[fi] {
				inc.Drop(fi)
			}
		}
		ps := logic.RandomPatterns(c.NumInputs(), 1+int(nvec)%16, rng)
		for u := 0; u < ps.Len(); u++ {
			v := ps.Get(u)
			want := runOneVector(fl, alive, v)
			if got := inc.SimulateVector(v); !slices.Equal(got, want) {
				t.Fatalf("vector %d: SimulateVector dropped %v, reference detects %v", u, got, want)
			}
			for _, fi := range want {
				alive[fi] = false
			}
		}
	})
}

// BenchmarkSimulateVector times the per-test drop on irs641's raw
// netlist over its collapsed universe: one op applies 64 random
// vectors to a fresh simulator, so the alive set shrinks as it would
// in test generation.
func BenchmarkSimulateVector(b *testing.B) {
	sc, _ := gen.SuiteByName("irs641")
	c := sc.Build()
	fl := fault.CollapsedUniverse(c)
	cc := circuit.Compile(c)
	ps := logic.RandomPatterns(c.NumInputs(), 64, prng.New(1))
	vs := make([]logic.Vector, ps.Len())
	for u := range vs {
		vs[u] = ps.Get(u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := NewIncremental(fl, cc)
		for _, v := range vs {
			inc.SimulateVector(v)
		}
	}
}
