package service

import (
	"fmt"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/tgen"
)

// atpgKind runs ordered test generation remotely: ADI over the job's
// vector set U, one of the paper's six fault orders, then PODEM along
// that order with random fill and fault dropping by simulation —
// bit-identical to an in-process adi.Compute + tgen.Generate run with
// equal inputs. Progress streams per ATPG target the way grade
// streams per 64-pattern block.
type atpgKind struct{}

// shardable: test generation is sequential over shared drop state (a
// test generated for one fault drops faults everywhere in the order),
// so fault ranges cannot be generated independently and merged.
func (atpgKind) shardable() bool { return false }

func (atpgKind) validate(spec JobSpec) error {
	if err := validateOrderedSpec(spec); err != nil {
		return err
	}
	if spec.Gen != nil && spec.Gen.BacktrackLimit < 0 {
		return fmt.Errorf("gen backtrack_limit must be >= 0 (0 = library default)")
	}
	return nil
}

func (atpgKind) run(s *Service, j *job) (any, error) {
	entry, ix, err := s.computeIndex(j)
	if err != nil {
		return nil, err
	}
	// Validated at submit.
	kind, _ := adi.ParseOrder(j.spec.Order.Kind)
	stopOrder := j.phase(PhaseOrder)
	order := ix.Order(kind)
	stopOrder()

	var gspec GenSpec
	if j.spec.Gen != nil {
		gspec = *j.spec.Gen
	}
	j.mu.Lock()
	j.status.Targets = len(order)
	j.mu.Unlock()

	stopGen := j.phase(PhaseGenerate)
	gres, err := tgen.GenerateContext(j.ctx, entry.Faults, order, tgen.Options{
		FillSeed:       gspec.FillSeed,
		BacktrackLimit: gspec.BacktrackLimit,
		Progress:       func(p tgen.Progress) { j.publishGen(p) },
	})
	stopGen()
	if err != nil {
		return nil, err
	}

	out := &AtpgResult{
		ID:          j.id,
		Kind:        KindAtpg,
		Circuit:     entry.Circuit.Name,
		Fingerprint: fmt.Sprintf("%016x", entry.Fingerprint),
		Order:       kind.String(),
		Faults:      entry.Faults.Len(),
		Vectors:     ix.U.Len(),
		TargetOf:    append([]int(nil), gres.TargetOf...),
		Curve:       append([]int(nil), gres.Curve...),
		Redundant:   append([]int(nil), gres.Redundant...),
		Aborted:     append([]int(nil), gres.Aborted...),
		AtpgCalls:   gres.AtpgCalls,
		Backtracks:  gres.Backtracks,
		Detected:    gres.Detected(),
		Coverage:    gres.Coverage(),
		AVE:         gres.AVE(),
	}
	out.Tests = make([]string, len(gres.Tests))
	for i, v := range gres.Tests {
		out.Tests[i] = vectorString(v)
	}

	j.mu.Lock()
	j.status.TargetsDone = len(order)
	j.status.Tests = len(out.Tests)
	j.status.Detected = out.Detected
	j.mu.Unlock()
	return out, nil
}

// AtpgResult is the outcome of an atpg job: the generated test set in
// generation order (as wire bit strings), the per-test targets, the
// cumulative coverage curve and the generator's effort counters —
// field for field what an in-process generation run returns.
type AtpgResult struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Circuit     string `json:"circuit"`
	Fingerprint string `json:"fingerprint"`
	// Order is the canonical label of the fault order that was used.
	Order string `json:"order"`
	// Faults is the collapsed fault universe size; Vectors is |U|, the
	// ADI vector set size.
	Faults  int `json:"faults"`
	Vectors int `json:"vectors"`
	// Tests is the generated test set as bit strings ("0110"), one
	// character per primary input, in generation order.
	Tests []string `json:"tests"`
	// TargetOf[i] is the fault index test i was generated for.
	TargetOf []int `json:"target_of"`
	// Curve[i] is the number of faults detected by the first i+1
	// tests.
	Curve []int `json:"curve"`
	// Redundant and Aborted list fault indices classified as
	// undetectable / abandoned by the ATPG.
	Redundant []int `json:"redundant,omitempty"`
	Aborted   []int `json:"aborted,omitempty"`
	// AtpgCalls counts PODEM invocations; Backtracks sums their
	// backtrack counts.
	AtpgCalls  int `json:"atpg_calls"`
	Backtracks int `json:"backtracks"`
	// Detected, Coverage and AVE summarize the test set: faults
	// detected, fraction of the universe, and the paper's steepness
	// metric (lower is steeper).
	Detected int     `json:"detected"`
	Coverage float64 `json:"coverage"`
	AVE      float64 `json:"ave"`
	// Timing is the job's wall-clock record, attached by the engine at
	// the terminal transition.
	Timing *Timing `json:"timing,omitempty"`
	// TraceID is the job's distributed-trace id, identical to the one
	// on the status. Additive to the v1 wire.
	TraceID string `json:"trace_id,omitempty"`
}
