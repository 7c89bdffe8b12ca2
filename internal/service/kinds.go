package service

import (
	"errors"
	"fmt"
	"strings"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
)

// Job kinds of the v1 wire contract. A JobSpec without a kind is a
// grade job — the only kind v1 knew before the engine became
// multi-kind, so old specs keep their meaning.
const (
	// KindGrade fault-grades a vector set: batch fault simulation
	// under a dropping policy, per-fault detection data in the result.
	KindGrade = "grade"
	// KindAtpg runs ordered test generation: the accidental detection
	// index is computed over the job's vector set U, the fault universe
	// is permuted by the requested order, and PODEM generates a test
	// set along that order (the paper's Section 4 flow).
	KindAtpg = "atpg"
	// KindADIOrder computes the accidental detection index over the
	// job's vector set U and returns one of the paper's six fault
	// orders, without generating tests.
	KindADIOrder = "adi_order"
)

// ErrUnsupportedKind is returned by Submit for a job kind the engine
// does not know, or one this server was configured not to serve. On
// the wire it is the typed "unsupported_kind" envelope code.
var ErrUnsupportedKind = errors.New("service: unsupported job kind")

// NormalizeKind maps a wire kind field to its canonical kind name: the
// empty string is the v1-compatible default, grade.
func NormalizeKind(kind string) string {
	if kind == "" {
		return KindGrade
	}
	return kind
}

// KindNames lists the job kinds the engine knows, in wire-name form.
func KindNames() []string { return []string{KindGrade, KindAtpg, KindADIOrder} }

// jobKind is one entry of the job-kind registry: the hooks a kind
// supplies to run on the shared engine (queue, worker pool,
// cancellation at barriers, progress streaming, LRU registry). The
// engine owns every state transition; a kind only validates its slice
// of the spec and produces a result payload.
type jobKind interface {
	// validate checks the kind-specific fields of a spec at submit
	// time; the circuit reference, pattern spec, worker bound and
	// shardability are validated by the engine before it is called.
	validate(spec JobSpec) error
	// shardable reports whether the kind honors JobSpec.FaultShard.
	// Only grade is shardable: its per-fault dropping decisions are
	// independent, so disjoint fault ranges merge bit-identically,
	// whereas ATPG and the dynamic orders are sequential over shared
	// ndet state.
	shardable() bool
	// run executes the job body under j.ctx and returns the
	// kind-specific result payload. Returning the context's error
	// marks the job cancelled; any other error marks it failed.
	run(s *Service, j *job) (any, error)
}

// jobKinds is the kind registry. Keys are the wire names Submit
// dispatches on.
var jobKinds = map[string]jobKind{
	KindGrade:    gradeKind{},
	KindAtpg:     atpgKind{},
	KindADIOrder: adiOrderKind{},
}

// OrderSpec selects one of the paper's six fault orders for atpg and
// adi_order jobs.
type OrderSpec struct {
	// Kind is the order label: orig, incr0, decr, 0decr, dynm or
	// 0dynm. Required — like grade's mode, the wire has no silent
	// default order.
	Kind string `json:"kind"`
}

// GenSpec tunes an atpg job's test generator; the zero value is the
// default (library default backtrack limit, zero fill seed).
type GenSpec struct {
	// FillSeed seeds the pseudo-random completion of unspecified
	// inputs; equal seeds give bit-identical test sets on every host.
	FillSeed uint64 `json:"fill_seed,omitempty"`
	// BacktrackLimit bounds PODEM's backtracks per target (0 =
	// library default).
	BacktrackLimit int `json:"backtrack_limit,omitempty"`
}

// validateOrderedSpec checks the constraints shared by the ADI-driven
// kinds (atpg, adi_order): an order spec is required and the
// grade-only knobs must be unset — these kinds simulate U without
// dropping by definition, so accepting a mode silently would lie about
// what runs.
func validateOrderedSpec(spec JobSpec) error {
	kind := NormalizeKind(spec.Kind)
	if spec.Mode != "" {
		return fmt.Errorf("mode applies only to grade jobs (%s jobs simulate U without dropping)", kind)
	}
	if spec.N != 0 {
		return fmt.Errorf("n applies only to grade jobs in ndetect mode")
	}
	if spec.StopAtCoverage != 0 {
		return fmt.Errorf("stop_at_coverage applies only to grade jobs")
	}
	if spec.Order == nil || spec.Order.Kind == "" {
		return fmt.Errorf("%s jobs require an order spec (kind orig, incr0, decr, 0decr, dynm or 0dynm)", kind)
	}
	if _, err := adi.ParseOrder(spec.Order.Kind); err != nil {
		return err
	}
	return nil
}

// prepare resolves a job's circuit through the registry and
// materializes its vector set — the prologue every kind shares.
// Fault counts and status fields are kind-dependent (a grade shard
// reports only its slice of the universe) and stay with the caller.
// A cancel that lands during circuit resolution aborts the job but
// not the registry build: the entry stays cached and consistent for
// the next submission of the same circuit.
func (s *Service) prepare(j *job) (entry *CircuitEntry, ps *logic.PatternSet, patternKey string, err error) {
	defer j.phase(PhaseRegistryBuild)()
	entry, err = s.reg.CircuitFor(j.spec)
	if err != nil {
		return nil, nil, "", err
	}
	if err := j.ctx.Err(); err != nil {
		return nil, nil, "", err
	}
	ps, patternKey, err = buildPatterns(entry.Circuit.NumInputs(), j.spec.Patterns)
	if err != nil {
		return nil, nil, "", err
	}
	return entry, ps, patternKey, nil
}

// computeIndex runs the shared first phase of the atpg and adi_order
// kinds: resolve the circuit, then derive the accidental detection
// index of its full collapsed fault universe under the job's vector
// set U. The NoDrop simulation streams per-block progress exactly as
// a grade job does and reuses the registry's good-machine cache, so
// repeat ordering requests over the same (circuit, U) pair skip
// straight to the index derivation.
func (s *Service) computeIndex(j *job) (*CircuitEntry, *adi.Index, error) {
	entry, ps, patternKey, err := s.prepare(j)
	if err != nil {
		return nil, nil, err
	}

	j.mu.Lock()
	j.status.Circuit = entry.Circuit.Name
	j.status.Faults = entry.Faults.Len()
	j.status.Vectors = ps.Len()
	j.status.Blocks = ps.Blocks()
	j.status.Active = entry.Faults.Len()
	j.mu.Unlock()

	stopSim := j.phase(PhaseSimulate)
	good := s.reg.Good(entry, patternKey, ps)
	res, err := fsim.RunParallelCtx(j.ctx, entry.Faults, ps, fsim.ParallelOptions{
		Options:    fsim.Options{Mode: fsim.NoDrop},
		Workers:    s.jobWorkers(j),
		BlockWidth: j.spec.BlockWidth,
		Compiled:   s.reg.Compiled(entry),
		Good:       good,
		Progress:   func(p fsim.Progress) { j.publish(p) },
	})
	stopSim()
	if err != nil {
		return nil, nil, err
	}
	stopOrder := j.phase(PhaseOrder)
	ix := adi.FromResult(res, ps)
	stopOrder()
	return entry, ix, nil
}

// jobWorkers resolves a job's shard worker count: the spec's override
// when set, the service default otherwise. Submit already rejected
// out-of-range values.
func (s *Service) jobWorkers(j *job) int {
	if j.spec.Workers != 0 {
		return j.spec.Workers
	}
	return s.cfg.SimWorkers
}

// vectorString renders an input vector as the wire's bit-string form
// ("0110"), the inverse of the PatternSpec.Vectors encoding.
func vectorString(v logic.Vector) string {
	b := make([]byte, len(v))
	for i, bit := range v {
		if bit != 0 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// unsupportedKindError builds the typed rejection for an unknown or
// disabled kind.
func unsupportedKindError(kind string, serving []string) error {
	return fmt.Errorf("%w %q (this server accepts %s)", ErrUnsupportedKind, kind, strings.Join(serving, ", "))
}
