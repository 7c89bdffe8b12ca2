// Package tgen drives test generation over an ordered fault list,
// reproducing the experimental flow of Section 4 of the paper:
//
//	for each fault f in the given order:
//	    if f was already detected (dropped), skip it;
//	    run PODEM for f;
//	    on success, fill the unspecified inputs of the cube, append
//	    the vector to the test set, fault-simulate it against all
//	    remaining faults, and drop every fault it detects;
//	    on redundancy, remove f from the target set;
//	    on abort, leave f alive (a later test may still catch it).
//
// No dynamic compaction heuristic is used; the only lever is the fault
// order, which is exactly the experimental design the paper needs to
// isolate the effect of the accidental detection index.
//
// The driver records the fault coverage curve n(i) (faults detected by
// the first i tests) and derives the AVE steepness metric of the
// paper's Table 7.
package tgen

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/eda-go/adifo/internal/atpg"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// Options configures one generation run.
type Options struct {
	// BacktrackLimit is passed to the PODEM generator (0 = default).
	BacktrackLimit int
	// FillSeed seeds the pseudo-random completion of unspecified
	// inputs. Runs with equal seeds and equal orders are bit-for-bit
	// reproducible.
	FillSeed uint64
	// Validate cross-checks every generated vector against the fault
	// simulator: the targeted fault must be among the faults the
	// vector drops. The check is cheap relative to generation and on
	// by default in the experiment harness.
	Validate bool
	// Progress, when non-nil, is called after every PODEM attempt
	// (successful, redundant or aborted; already-dropped targets are
	// skipped silently) with the run's state — the generation
	// analogue of the simulator's per-block progress callback. It is
	// called from the generating goroutine, never concurrently, and
	// must not retain its argument.
	Progress func(Progress)
}

// Progress is a per-target snapshot of a running generation.
type Progress struct {
	// Done counts the order positions consumed so far (1-based).
	// Because already-dropped targets are skipped without an event,
	// the last event of a run whose order ends in dropped faults has
	// Done < Targets; only the terminal job status is authoritative
	// for completion. Targets is the order length.
	Done    int
	Targets int
	// Tests is the number of vectors generated so far; Detected the
	// faults they detect; Active the faults neither detected nor
	// proven redundant yet.
	Tests    int
	Detected int
	Active   int
	// AtpgCalls and Backtracks are the effort counters so far.
	AtpgCalls  int
	Backtracks int
}

// Result collects everything one run produced.
type Result struct {
	List *fault.List

	// Order is the fault order that was used.
	Order []int

	// Tests is the generated test set, in generation order.
	Tests []logic.Vector

	// TargetOf[i] is the fault index the i-th test was generated for.
	TargetOf []int

	// Curve[i] is n(i+1): the number of faults detected by the first
	// i+1 tests. len(Curve) == len(Tests).
	Curve []int

	// Redundant and Aborted list the fault indices classified as
	// undetectable / abandoned by the ATPG.
	Redundant []int
	Aborted   []int

	// AtpgCalls counts PODEM invocations; Backtracks sums their
	// backtrack counts.
	AtpgCalls  int
	Backtracks int

	// Elapsed is the wall-clock generation time (ATPG + fault
	// simulation), the quantity normalized in the paper's Table 6.
	Elapsed time.Duration
}

// Detected returns the total number of faults detected by the test
// set.
func (r *Result) Detected() int {
	if len(r.Curve) == 0 {
		return 0
	}
	return r.Curve[len(r.Curve)-1]
}

// Coverage returns the fraction of all faults detected by the test
// set.
func (r *Result) Coverage() float64 {
	if r.List.Len() == 0 {
		return 0
	}
	return float64(r.Detected()) / float64(r.List.Len())
}

// AVE returns the expected number of tests applied until a faulty
// chip is detected (the paper's steepness metric):
//
//	AVE = Σ_i i · [n(i) − n(i−1)] / n(k)
//
// with tests numbered from 1. Lower is steeper. It returns 0 for an
// empty test set.
func (r *Result) AVE() float64 {
	return AVE(r.Curve)
}

// AVE computes the steepness metric from a cumulative coverage curve
// (curve[i] = faults detected by the first i+1 tests).
func AVE(curve []int) float64 {
	if len(curve) == 0 || curve[len(curve)-1] == 0 {
		return 0
	}
	sum := 0.0
	prev := 0
	for i, n := range curve {
		sum += float64(i+1) * float64(n-prev)
		prev = n
	}
	return sum / float64(curve[len(curve)-1])
}

// Generate runs the flow over fl in the given fault order. The order
// must be a permutation of [0, fl.Len()); Generate panics on any other.
// It is GenerateContext without cancellation.
func Generate(fl *fault.List, order []int, opts Options) *Result {
	r, err := GenerateContext(context.Background(), fl, order, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// GenerateContext is Generate with cooperative cancellation: ctx is
// polled before every ATPG target, so a cancelled run stops within one
// fault's worth of work (one PODEM call plus one incremental fault
// simulation). On cancellation it returns the partial result — every
// test generated so far, with a consistent coverage curve — together
// with ctx.Err(); the error is nil on a completed run. An order that
// is not a permutation of [0, fl.Len()) returns no result and an error.
func GenerateContext(ctx context.Context, fl *fault.List, order []int, opts Options) (*Result, error) {
	if err := checkPermutation(order, fl.Len()); err != nil {
		return nil, fmt.Errorf("tgen: %w", err)
	}
	start := time.Now()

	cc := circuit.Compile(fl.Circuit)
	gen := atpg.New(cc, atpg.Options{BacktrackLimit: opts.BacktrackLimit})
	inc := fsim.NewIncremental(fl, cc)
	fill := prng.New(opts.FillSeed)

	r := &Result{List: fl, Order: order}
	detected := 0

	for pos, fi := range order {
		if err := ctx.Err(); err != nil {
			r.Elapsed = time.Since(start)
			return r, err
		}
		if !inc.Alive(fi) {
			continue
		}
		f := fl.Faults[fi]
		res := gen.Generate(f)
		r.AtpgCalls++
		r.Backtracks += res.Backtracks
		switch res.Status {
		case atpg.Success:
			v := atpg.FillRandom(res.Cube, fill)
			dropped := inc.SimulateVector(v)
			// The target is alive here, so it is among the dropped
			// faults exactly when v detects it.
			if opts.Validate && !slices.Contains(dropped, fi) {
				panic(fmt.Sprintf("tgen: vector generated for %v does not detect it", f.Name(fl.Circuit)))
			}
			detected += len(dropped)
			r.Tests = append(r.Tests, v)
			r.TargetOf = append(r.TargetOf, fi)
			r.Curve = append(r.Curve, detected)
		case atpg.Redundant:
			inc.Drop(fi)
			r.Redundant = append(r.Redundant, fi)
		case atpg.Aborted:
			r.Aborted = append(r.Aborted, fi)
		}
		if opts.Progress != nil {
			opts.Progress(Progress{
				Done:       pos + 1,
				Targets:    len(order),
				Tests:      len(r.Tests),
				Detected:   detected,
				Active:     fl.Len() - detected - len(r.Redundant),
				AtpgCalls:  r.AtpgCalls,
				Backtracks: r.Backtracks,
			})
		}
	}
	r.Elapsed = time.Since(start)
	return r, nil
}

func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("order has %d entries, fault list has %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, fi := range order {
		if fi < 0 || fi >= n || seen[fi] {
			return fmt.Errorf("order is not a permutation of [0,%d)", n)
		}
		seen[fi] = true
	}
	return nil
}

// CoveragePoints converts a cumulative curve into (tests %, coverage
// %) pairs normalized the way Figure 1 of the paper plots them: the
// x-axis is the test index as a percentage of the test set size, the
// y-axis is fault coverage relative to the total detected by the full
// set.
func CoveragePoints(curve []int) (xs, ys []float64) {
	if len(curve) == 0 {
		return nil, nil
	}
	total := float64(curve[len(curve)-1])
	k := float64(len(curve))
	for i, n := range curve {
		xs = append(xs, 100*float64(i+1)/k)
		ys = append(ys, 100*float64(n)/total)
	}
	return xs, ys
}
