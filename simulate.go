package adifo

import (
	"context"
	"fmt"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/fsim"
)

// Mode selects the dropping policy of a batch simulation.
type Mode = fsim.Mode

// The three dropping policies.
const (
	// NoDrop simulates every fault against every vector and records
	// complete detection sets D(f) and per-vector counts ndet(u) —
	// the regime the ADI computation requires. This is the default
	// mode of Simulate.
	NoDrop = fsim.NoDrop
	// Drop removes a fault at its first detection.
	Drop = fsim.Drop
	// NDetect removes a fault after its n-th detection (see
	// WithNDetect).
	NDetect = fsim.NDetect
)

// ParseMode maps a mode name ("nodrop", "drop", "ndetect") to its Mode
// value; the empty string is rejected.
func ParseMode(name string) (Mode, error) { return fsim.ParseMode(name) }

// SimProgress is a per-block snapshot of a running simulation,
// delivered at each 64-pattern block barrier.
type SimProgress = fsim.Progress

// SimResult holds everything a batch simulation learned: per-fault
// detection counts, first-detection indices, detection sets (NoDrop
// and NDetect modes) and per-vector ndet counters.
type SimResult = fsim.Result

// simConfig collects the Simulate options; the zero value — NoDrop
// mode, GOMAXPROCS workers, no early stop — is the documented default,
// which is what makes the NoDrop default explicit rather than an
// accident of string parsing.
type simConfig struct {
	par fsim.ParallelOptions
}

// SimOption configures Simulate.
type SimOption func(*simConfig)

// WithMode selects the dropping policy (default NoDrop).
func WithMode(m Mode) SimOption {
	return func(c *simConfig) { c.par.Mode = m }
}

// WithNDetect selects NDetect mode with the given drop threshold:
// faults are dropped after their n-th detection.
func WithNDetect(n int) SimOption {
	return func(c *simConfig) { c.par.Mode = fsim.NDetect; c.par.N = n }
}

// WithWorkers sets the number of shard worker goroutines (default
// GOMAXPROCS). The worker count never changes results, only speed.
func WithWorkers(n int) SimOption {
	return func(c *simConfig) { c.par.Workers = n }
}

// WithStopAtCoverage stops the run after the first block in which
// total fault coverage reaches the threshold (e.g. 0.90).
func WithStopAtCoverage(cov float64) SimOption {
	return func(c *simConfig) { c.par.StopAtCoverage = cov }
}

// WithBlockWidth pins the simulation kernel's block width — the number
// of patterns one fault pass evaluates — to 64, 256 or 512. The
// default (0) picks the widest block the pattern count and mode
// justify. Like the worker count, the width never changes results,
// only speed; invalid widths are rejected by Simulate.
func WithBlockWidth(w int) SimOption {
	return func(c *simConfig) { c.par.BlockWidth = w }
}

// WithProgress registers a callback invoked after every 64-pattern
// block barrier with the run's state. It is called from the
// coordinating goroutine, never concurrently.
func WithProgress(fn func(SimProgress)) SimOption {
	return func(c *simConfig) { c.par.Progress = fn }
}

// Simulate fault-simulates every fault of fl against the vectors of ps
// under the given options (NoDrop mode over all workers by default).
// Results are bit-identical for every worker count.
//
// ctx is honored at every block barrier: a cancelled simulation stops
// within one 64-pattern block, returning the partial result together
// with ctx.Err().
func Simulate(ctx context.Context, fl *FaultList, ps *PatternSet, opts ...SimOption) (*SimResult, error) {
	var cfg simConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if ps.Inputs() != fl.Circuit.NumInputs() {
		return nil, fmt.Errorf("adifo: pattern set has %d inputs, circuit %s has %d",
			ps.Inputs(), fl.Circuit.Name, fl.Circuit.NumInputs())
	}
	if cfg.par.Mode == fsim.NDetect && cfg.par.N <= 0 {
		return nil, fmt.Errorf("adifo: NDetect mode requires a threshold > 0 (use WithNDetect)")
	}
	switch cfg.par.BlockWidth {
	case 0, 64, 256, 512:
	default:
		return nil, fmt.Errorf("adifo: block width %d invalid; want 0 (auto), 64, 256 or 512", cfg.par.BlockWidth)
	}
	return fsim.RunParallelCtx(ctx, fl, ps, cfg.par)
}

// SizePatterns sizes a vector set the way the paper sizes U: simulate
// the candidates with fault dropping until targetCoverage of the
// faults are detected, and keep only the vectors simulated up to that
// point. Use RandomPatterns(inputs, DefaultUBudget, DefaultUSeed) and
// DefaultTargetCoverage for the published recipe.
func SizePatterns(ctx context.Context, fl *FaultList, candidates *PatternSet, targetCoverage float64) (*PatternSet, error) {
	sizing, err := Simulate(ctx, fl, candidates,
		WithMode(Drop), WithStopAtCoverage(targetCoverage))
	if err != nil {
		return nil, err
	}
	return candidates.Slice(sizing.VectorsUsed), nil
}

// Index holds the accidental detection indices of one fault list under
// one vector set U: ADI[f] = min{ ndet(u) : u detects f }, zero for
// faults U misses. Its Order method derives the six fault orders.
type Index = adi.Index

// OrderKind names one of the paper's six fault orders.
type OrderKind = adi.OrderKind

// The six orders of the paper, in the order they are introduced.
const (
	// Orig is the original listing order (the comparison baseline).
	Orig = adi.Orig
	// Incr0 is increasing ADI, zero-ADI faults last (adversarial
	// control).
	Incr0 = adi.Incr0
	// Decr is decreasing ADI, zero-ADI faults last.
	Decr = adi.Decr
	// Decr0 is zero-ADI faults first, then decreasing ADI.
	Decr0 = adi.Decr0
	// Dynm is Decr with ndet/ADI updated dynamically as faults are
	// placed — the order the paper recommends for steep coverage
	// curves (F_dynm).
	Dynm = adi.Dynm
	// Dynm0 is zero-ADI faults first, then the dynamic process — the
	// variant for minimum test-set size (F_0dynm).
	Dynm0 = adi.Dynm0
)

// AllOrders lists every OrderKind.
func AllOrders() []OrderKind { return adi.AllOrders() }

// ParseOrder maps the paper's order labels (orig, incr0, decr, 0decr,
// dynm, 0dynm) to an OrderKind.
func ParseOrder(name string) (OrderKind, error) { return adi.ParseOrder(name) }

// ComputeADI fault-simulates fl under u without dropping and derives
// the accidental detection indices. ctx cancels the underlying
// simulation at a block barrier.
func ComputeADI(ctx context.Context, fl *FaultList, u *PatternSet) (*Index, error) {
	res, err := Simulate(ctx, fl, u)
	if err != nil {
		return nil, err
	}
	return adi.FromResult(res, u), nil
}

// ADIFromResult derives the indices from an existing Simulate result
// that carries detection sets (NoDrop or NDetect mode); it errors on a
// Drop-mode result, which records no D(f). Reusing a result avoids
// simulating twice when a program needs both grading data and orders.
func ADIFromResult(res *SimResult, u *PatternSet) (*Index, error) {
	if res.Det == nil {
		return nil, fmt.Errorf("adifo: ADI requires a NoDrop or NDetect simulation result (Drop mode records no detection sets)")
	}
	return adi.FromResult(res, u), nil
}
