package service

import (
	"context"
	"fmt"

	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/obs/trace"
)

// gradeKind is the original fault-grading workload: batch simulation
// of the job's vector set under a dropping policy, optionally
// restricted to one fault shard of the collapsed universe.
type gradeKind struct{}

// shardable: dropping decisions are per-fault, so disjoint index
// ranges have no cross-fault control dependence and shard results
// merge bit-identically (the cluster coordinator relies on this).
func (gradeKind) shardable() bool { return true }

func (gradeKind) validate(spec JobSpec) error {
	if spec.Order != nil || spec.Gen != nil {
		return fmt.Errorf("order and gen specs apply only to atpg and adi_order jobs")
	}
	if spec.Mode == "" {
		// No silent default on the wire: a request must say what it
		// wants. Library callers get the NoDrop default from the adifo
		// facade's options instead.
		return fmt.Errorf("mode is required (nodrop, drop or ndetect)")
	}
	mode, err := fsim.ParseMode(spec.Mode)
	if err != nil {
		return err
	}
	if mode == fsim.NDetect && spec.N <= 0 {
		return fmt.Errorf("ndetect mode requires n > 0")
	}
	if mode != fsim.NDetect && spec.N != 0 {
		return fmt.Errorf("n is only meaningful in ndetect mode")
	}
	if fs := spec.FaultShard; fs != nil {
		if fs.Count < 1 {
			return fmt.Errorf("fault_shard count %d must be >= 1", fs.Count)
		}
		if fs.Index < 0 || fs.Index >= fs.Count {
			return fmt.Errorf("fault_shard index %d out of range [0, %d)", fs.Index, fs.Count)
		}
		if spec.StopAtCoverage > 0 {
			// The cut-off is defined on global coverage, which a shard
			// cannot observe; allowing it would silently break the
			// bit-identical merge guarantee.
			return fmt.Errorf("stop_at_coverage cannot be combined with fault_shard")
		}
	}
	return nil
}

func (gradeKind) run(s *Service, j *job) (any, error) {
	entry, ps, patternKey, err := s.prepare(j)
	if err != nil {
		return nil, err
	}
	// Re-derived, not re-validated: validate already proved it parses.
	mode, _ := fsim.ParseMode(j.spec.Mode)
	opts := fsim.Options{Mode: mode, N: j.spec.N, StopAtCoverage: j.spec.StopAtCoverage}

	// A shard job grades only its index range of the collapsed
	// universe, against the full pattern set. The sub-list shares the
	// cached entry's backing array read-only; shardLo maps shard-local
	// fault indices back to global ones in the result.
	faults, shardLo := entry.Faults, 0
	if fs := j.spec.FaultShard; fs != nil {
		lo, hi := ShardRange(entry.Faults.Len(), fs.Index, fs.Count)
		shardLo = lo
		faults = &fault.List{Circuit: entry.Circuit, Faults: entry.Faults.Faults[lo:hi]}
	}

	res, err := s.simulate(j, entry, faults, ps, patternKey, opts)
	if err != nil {
		return nil, err
	}

	result := buildResult(j, entry, faults, shardLo, ps.Len(), res)
	j.mu.Lock()
	j.status.VectorsUsed = res.VectorsUsed
	j.status.Detected = result.Detected
	j.mu.Unlock()
	return result, nil
}

// buildResult assembles the wire result. faults is the graded list (a
// shard sub-list of entry.Faults for shard jobs) and shardLo maps its
// local indices back to global collapsed-universe indices, so FaultResult.F
// is always global and shard results concatenate directly.
func buildResult(j *job, entry *CircuitEntry, faults *fault.List, shardLo, vectors int, res *fsim.Result) *JobResult {
	c := entry.Circuit
	out := &JobResult{
		ID:          j.id,
		Kind:        KindGrade,
		Circuit:     c.Name,
		Fingerprint: fmt.Sprintf("%016x", entry.Fingerprint),
		Mode:        j.spec.Mode,
		Faults:      faults.Len(),
		TotalFaults: entry.Faults.Len(),
		FaultShard:  j.spec.FaultShard,
		Vectors:     vectors,
		VectorsUsed: res.VectorsUsed,
		Detected:    res.DetectedCount(),
		Coverage:    res.Coverage(),
		Ndet:        append([]int(nil), res.Ndet...),
		PerFault:    make([]FaultResult, faults.Len()),
	}
	// The names share one string and the detection lists one exactly
	// sized array, each fault holding a full-capacity window of it: a
	// retained result then costs its payload, not an allocation per
	// fault.
	var names []byte
	ends := make([]int, faults.Len())
	for fi, f := range faults.Faults {
		names = f.AppendName(names, c)
		ends[fi] = len(names)
	}
	all := string(names)
	var dets []int
	if res.Det != nil {
		total := 0
		for _, d := range res.Det {
			total += d.Count()
		}
		dets = make([]int, 0, total)
	}
	lo := 0
	for fi := range faults.Faults {
		fr := FaultResult{
			F:        shardLo + fi,
			Name:     all[lo:ends[fi]],
			DetCount: res.DetCount[fi],
			FirstDet: res.FirstDet[fi],
		}
		lo = ends[fi]
		if res.Det != nil {
			n := len(dets)
			dets = res.Det[fi].AppendIndices(dets)
			// An undetected fault's list stays nil, as the omitted det
			// key decodes.
			if len(dets) > n {
				fr.Det = dets[n:len(dets):len(dets)]
			}
		}
		out.PerFault[fi] = fr
	}
	return out
}

// GradeFunc supplies the body of a service's grade jobs in place of
// the local simulator: the cluster coordinator's engine fans each job
// out across remote backends. Submit, and journal replay, call it once
// the spec has validated; an error rejects the job as a spec error
// does. The Body it returns must start no work before its Run.
type GradeFunc func(ctx context.Context, spec JobSpec) (Body, error)

// Body runs one grade job that a GradeFunc supplied. ctx is cancelled
// by Cancel and Drain and carries the job's root span. The result is
// non-nil when err is nil; an error wrapping ctx's error marks the job
// cancelled, any other error fails it.
type Body interface {
	Run(ctx context.Context, r *Run) (*JobResult, error)
}

// Run is the engine's side of a running Body: the job's id and the
// progress and phase records every job keeps.
type Run struct {
	ID string
	j  *job
}

// Publish records one block's progress on the job's status and
// queues it, stamped with the job's id and kind, for every stream.
func (r *Run) Publish(ev ProgressEvent) { r.j.publishBlock(ev) }

// Phase starts the stopwatch of one Timing.Phases entry, with a span
// under the job's root span; calling stop records it.
func (r *Run) Phase(name string) (stop func()) { return r.j.phase(name) }

// bodyKind is a grade job whose body a GradeFunc supplied; it
// validates exactly as grade does.
type bodyKind struct {
	gradeKind
	body Body
}

func (k bodyKind) run(s *Service, j *job) (any, error) {
	j.mu.Lock()
	ctx := trace.ContextWithSpan(j.ctx, j.span)
	j.mu.Unlock()
	res, err := k.body.Run(ctx, &Run{ID: j.id, j: j})
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.status.Circuit, j.status.Faults, j.status.Vectors = res.Circuit, res.Faults, res.Vectors
	j.status.VectorsUsed, j.status.Detected = res.VectorsUsed, res.Detected
	j.mu.Unlock()
	return res, nil
}
