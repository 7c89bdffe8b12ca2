package service

import (
	"time"

	"github.com/eda-go/adifo/internal/obs/trace"
)

// Phase names of Timing.Phases. Each kind records the subset it runs:
// grade records registry_build and simulate; adi_order adds order;
// atpg adds order and generate; a cluster-merged result carries merge.
// The engine owns the job lifecycle (submitted/started/finished), the
// kinds own the phases — the same single-ownership split the JobKind
// registry uses for state transitions, so a phase is timed exactly
// once no matter which kind runs it.
const (
	PhaseRegistryBuild = "registry_build" // circuit resolution + pattern materialization
	PhaseSimulate      = "simulate"       // PPSFP block simulation
	PhaseOrder         = "order"          // ADI derivation + fault-order construction
	PhaseGenerate      = "generate"       // PODEM test generation
	PhaseMerge         = "merge"          // cluster-side shard result merge
)

// Timing is the per-job wall-clock record, surfaced (additively — old
// clients never see the field absent a server that records it) on
// status and result wire responses. Timestamps locate the job on the
// server's clock; the durations are what capacity planning consumes:
// queue wait separates "the pool was busy" from "the job was slow",
// and the phase map says where the run time actually went.
type Timing struct {
	SubmittedAt time.Time `json:"submitted_at,omitzero"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// QueueWaitSeconds is StartedAt-SubmittedAt: time spent waiting for
	// a pool slot. RunSeconds is FinishedAt-StartedAt (zero while the
	// job runs; absent phases mean the job never reached them).
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	RunSeconds       float64 `json:"run_seconds,omitempty"`
	// Phases maps phase names (registry_build, simulate, order,
	// generate, merge) to seconds spent in them.
	Phases map[string]float64 `json:"phases,omitempty"`
}

// Snapshot returns an independent copy, safe to hand to wire encoders
// after the owning job's lock is released.
func (t *Timing) Snapshot() *Timing {
	cp := *t
	if t.Phases != nil {
		cp.Phases = make(map[string]float64, len(t.Phases))
		for k, v := range t.Phases {
			cp.Phases[k] = v
		}
	}
	return &cp
}

// AddPhase accumulates d into phase name.
func (t *Timing) AddPhase(name string, d time.Duration) {
	if t.Phases == nil {
		t.Phases = make(map[string]float64, 4)
	}
	t.Phases[name] += d.Seconds()
}

// phase starts a stopwatch for one named phase of j; the returned stop
// function records the elapsed time into the job's timing and mirrors
// it to the status. Kinds call it around each pipeline stage:
//
//	stop := j.phase(PhaseSimulate)
//	... run the simulator ...
//	stop()
//
// Each phase is also a child span of the job's root span, so the trace
// tree mirrors the Timing.Phases map. Bare test jobs with no trace
// context time phases without spans.
func (j *job) phase(name string) (stop func()) {
	start := j.now()
	j.mu.Lock()
	tctx := j.tctx
	j.mu.Unlock()
	var span *trace.Span
	if tctx != nil {
		_, span = trace.Start(tctx, name)
	}
	return func() {
		span.End()
		d := j.now().Sub(start)
		j.mu.Lock()
		j.timing.AddPhase(name, d)
		j.status.Timing = j.timing.Snapshot()
		j.mu.Unlock()
	}
}

// timed is implemented by every kind's result payload so the engine
// can attach the final Timing at the terminal transition without
// knowing the payload's concrete type.
type timed interface{ setTiming(*Timing) }

func (r *JobResult) setTiming(t *Timing)   { r.Timing = t }
func (r *AtpgResult) setTiming(t *Timing)  { r.Timing = t }
func (r *OrderResult) setTiming(t *Timing) { r.Timing = t }

// traced is the same single-ownership pattern for the trace id: the
// engine stamps the job's trace id on the result payload at the
// terminal transition, whatever its concrete kind.
type traced interface{ setTraceID(id string) }

func (r *JobResult) setTraceID(id string)   { r.TraceID = id }
func (r *AtpgResult) setTraceID(id string)  { r.TraceID = id }
func (r *OrderResult) setTraceID(id string) { r.TraceID = id }
