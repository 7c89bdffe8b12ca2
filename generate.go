package adifo

import (
	"context"

	"github.com/eda-go/adifo/internal/reorder"
	"github.com/eda-go/adifo/internal/tgen"
)

// TestResult collects everything one test-generation run produced: the
// test set in generation order, per-test targets, the cumulative fault
// coverage curve, redundant/aborted fault classifications and ATPG
// effort counters.
type TestResult = tgen.Result

// genConfig wraps the generator options; the zero value — default
// backtrack limit, zero fill seed, no validation — is the default.
type genConfig struct {
	opts tgen.Options
}

// GenOption configures GenerateTests.
type GenOption func(*genConfig)

// WithFillSeed seeds the pseudo-random completion of unspecified
// inputs. Runs with equal seeds and equal orders are bit-for-bit
// reproducible; DefaultFillSeed is the paper's value.
func WithFillSeed(seed uint64) GenOption {
	return func(c *genConfig) { c.opts.FillSeed = seed }
}

// WithValidate cross-checks every generated vector against the fault
// simulator: the targeted fault must be among the faults the vector
// drops.
func WithValidate(v bool) GenOption {
	return func(c *genConfig) { c.opts.Validate = v }
}

// WithBacktrackLimit bounds the PODEM generator's backtracks per
// target (0 = default).
func WithBacktrackLimit(n int) GenOption {
	return func(c *genConfig) { c.opts.BacktrackLimit = n }
}

// GenerateTests runs ordered test generation over fl — PODEM per
// fault, random fill, fault dropping by simulation, no dynamic
// compaction — exactly the paper's experimental flow where the fault
// order is the only lever. order must be a permutation of
// [0, fl.Len()), typically Index.Order(kind); any other order is an
// error.
//
// ctx is polled before every ATPG target: a cancelled run returns the
// tests generated so far, with a consistent coverage curve, together
// with ctx.Err().
func GenerateTests(ctx context.Context, fl *FaultList, order []int, opts ...GenOption) (*TestResult, error) {
	var cfg genConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return tgen.GenerateContext(ctx, fl, order, cfg.opts)
}

// AVE computes the paper's steepness metric from a cumulative coverage
// curve (curve[i] = faults detected by the first i+1 tests): the
// expected number of tests applied until a faulty chip is detected.
// Lower is steeper.
func AVE(curve []int) float64 { return tgen.AVE(curve) }

// CoveragePoints converts a cumulative curve into (tests %, coverage
// %) pairs normalized the way Figure 1 of the paper plots them.
func CoveragePoints(curve []int) (xs, ys []float64) {
	return tgen.CoveragePoints(curve)
}

// ReorderResult is the outcome of a static test-set reordering.
type ReorderResult = reorder.Result

// ReorderGreedy reorders an existing test set so the most-detecting
// vectors come first (the static method of the paper's reference [7],
// Lin et al.), for comparison against ADI-ordered generation.
func ReorderGreedy(fl *FaultList, ps *PatternSet) *ReorderResult {
	return reorder.Greedy(fl, ps)
}
