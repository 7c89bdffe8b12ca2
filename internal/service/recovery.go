package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/eda-go/adifo/internal/journal"
	"github.com/eda-go/adifo/internal/obs/trace"
)

// This file is the engine's side of the write-ahead journal: the
// submitted and finished appends, and the recovery pass Open runs
// before any listener accepts traffic.
//
// The journal stores wire-level JSON for specs and results, not
// internal structs (see DESIGN.md): a replayed spec re-enters the
// engine through the same decode+validate path a client submission
// takes, and a replayed result is served verbatim, so a restart is
// byte-invisible to clients polling a finished job.

// journalSubmitted makes the accepted job durable. Submit returns the
// id to the caller only after this append's fsync — an acknowledged
// job survives a crash. The append (including its group-committed
// fsync) is a span on the job's trace: submit latency a client sees is
// dominated by it, so it belongs on the flight recording.
func (s *Service) journalSubmitted(j *job) error {
	_, sp := trace.Start(j.tctx, "journal.append")
	sp.SetAttr("record", "submitted")
	defer sp.End()
	spec, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	return s.jnl.Append(journal.Record{
		Type:   journal.TypeSubmitted,
		Job:    j.id,
		Kind:   j.status.Kind,
		Tenant: j.spec.Tenant,
		Key:    j.spec.IdempotencyKey,
		Trace:  j.status.TraceID,
		Spec:   spec,
		At:     s.now().UnixNano(),
	})
}

// journalFinished records the terminal transition, with result, the
// job's v1 result bytes, for done jobs. Synchronous — the fsync is
// group-committed with concurrent appends. A journal failure here does
// not fail the job (the result is correct and already published); it
// is logged and counted, and the worst a crash can then do is re-run a
// deterministic job.
func (s *Service) journalFinished(j *job, st JobStatus, result []byte) {
	if s.jnl == nil {
		return
	}
	j.mu.Lock()
	tctx := j.tctx
	j.mu.Unlock()
	_, sp := trace.Start(tctx, "journal.append")
	sp.SetAttr("record", "finished")
	defer sp.End()
	rec := journal.Record{
		Type:   journal.TypeFinished,
		Job:    j.id,
		State:  st.State,
		Error:  st.Error,
		Result: result,
		At:     s.now().UnixNano(),
	}
	if err := s.jnl.Append(rec); err != nil {
		s.logger.Error("journal finished append failed", "job", j.id, "err", err)
	}
}

// replayedJob aggregates one job's records across the whole log.
type replayedJob struct {
	submitted journal.Record
	finished  *journal.Record
}

// recover replays the journal in dir and rebuilds the engine's state:
// terminal jobs come back queryable with their journaled result bytes,
// jobs that were queued or running at crash time re-enqueue with their
// original ids, the idempotency-key map is rebuilt, and the id
// sequence resumes past every replayed id. Runs before Open returns —
// callers wire the listener up afterwards, so recovery always precedes
// traffic. s.jnl is already open: a replayed spec that no longer
// validates is journaled as failed rather than retried forever.
func (s *Service) recover(dir string) error {
	byID := make(map[string]*replayedJob)
	var ids []string
	res, err := journal.Replay(dir, func(rec journal.Record) error {
		switch rec.Type {
		case journal.TypeSubmitted:
			if _, dup := byID[rec.Job]; !dup {
				byID[rec.Job] = &replayedJob{submitted: rec}
				ids = append(ids, rec.Job)
			}
		case journal.TypeFinished:
			if p := byID[rec.Job]; p != nil && p.finished == nil {
				r := rec
				p.finished = &r
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("service: journal replay: %w", err)
	}
	s.replayRecords = uint64(res.Records)
	if res.Truncated {
		s.logger.Warn("journal segment tail truncated or corrupt; replaying each segment up to its first bad frame",
			"dir", dir, "records", res.Records)
	}

	for _, id := range ids {
		p := byID[id]
		if n := parseJobID(id); n > s.seq {
			s.seq = n
		}
		if key := idemCacheKey(p.submitted.Tenant, p.submitted.Key); key != "" {
			s.idem[key] = id
		}
		if p.finished != nil {
			s.installTerminal(id, p)
		} else {
			s.requeue(id, p)
		}
	}
	s.evictOldJobsLocked()
	if len(ids) > 0 {
		s.logger.Info("journal replayed",
			"dir", dir, "records", res.Records, "jobs", len(ids),
			"requeued", s.replayRequeued, "truncated", res.Truncated)
	}
	return nil
}

// installTerminal registers a replayed terminal job: identity, final
// state, and — for done jobs — the journaled result bytes, which the
// job holds as its only copy of the result: GET /result serves them
// verbatim and ResultAny decodes them. They are decoded once here for
// the status's timing. Progress fields and phase history are not
// journaled; the status is the job's terminal identity, not a replay
// of its run.
func (s *Service) installTerminal(id string, p *replayedJob) {
	fin := p.finished
	j := s.installReplayed(id, p, fin.State, fin.Error)
	j.status.TraceID = p.submitted.Trace
	if fin.State == StateDone && len(fin.Result) > 0 {
		// The reader decoded the record into fresh memory, so the job
		// can keep its bytes as they are.
		j.raw = fin.Result
		if typed, err := decodeResult(j.status.Kind, fin.Result); err == nil {
			j.status.Timing = resultTiming(typed)
		} else {
			s.logger.Warn("journaled result decode failed; serving raw bytes only",
				"job", id, "err", err)
		}
	}
}

// installReplayed registers a replayed job that will not run, in its
// terminal state: its context is already cancelled, and it counts as
// submitted and as finished in that state.
func (s *Service) installReplayed(id string, p *replayedJob, state, errMsg string) *job {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // terminal: nothing to abort
	j := &job{
		id:      id,
		tenant:  p.submitted.Tenant,
		idemKey: idemCacheKey(p.submitted.Tenant, p.submitted.Key),
		ctx:     ctx,
		cancel:  cancel,
		now:     s.now,
		met:     s.met,
		status: JobStatus{
			ID:     id,
			Kind:   NormalizeKind(p.submitted.Kind),
			Tenant: p.submitted.Tenant,
			State:  state,
			Error:  errMsg,
		},
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.met.jobsSubmitted.With(j.status.Kind).Inc()
	s.met.jobsTotal.With(j.status.Kind, state).Inc()
	return j
}

// requeue re-enqueues a job that was queued or running at crash time.
// The journaled wire spec re-enters through the same validation a
// fresh submission gets; a spec this server can no longer run (kind
// disabled, worker bound lowered) becomes a failed job — journaled as
// such, so the next restart does not retry it forever.
func (s *Service) requeue(id string, p *replayedJob) {
	var spec JobSpec
	var k jobKind
	err := json.Unmarshal(p.submitted.Spec, &spec)
	if err == nil {
		k, err = s.kindFor(context.Background(), spec)
	}
	if err != nil {
		err = fmt.Errorf("service: journal replay: job no longer runnable: %w", err)
		j := s.installReplayed(id, p, StateFailed, err.Error())
		s.logger.Error("replayed job failed validation", "job", id, "err", err)
		s.journalFinished(j, j.status, nil)
		return
	}
	// A journaled trace id is restored, so the rerun continues the
	// original submit's trace instead of minting a fresh one — and the
	// replayed result is id-identical to the pre-crash run's.
	ctx := context.Background()
	if tid, terr := trace.ParseTraceID(p.submitted.Trace); terr == nil {
		ctx = trace.ContextWithRemote(ctx, trace.SpanContext{TraceID: tid, Flags: trace.FlagSampled})
	}
	j := s.newJob(ctx, id, spec, k)
	if p.submitted.At > 0 {
		j.timing.SubmittedAt = time.Unix(0, p.submitted.At)
		j.status.Timing = j.timing.Snapshot()
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.replayRequeued++
	s.wg.Add(1)
	s.enqueueLocked(j)
}

// parseJobID extracts the numeric part of an engine job id ("j42" →
// 42), 0 for anything else.
func parseJobID(id string) uint64 {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// decodeResult decodes a journaled result payload into the kind's
// typed form, so ResultAny on a replayed job returns the same concrete
// type a live run produces.
func decodeResult(kind string, raw []byte) (any, error) {
	switch kind {
	case KindGrade:
		r, err := DecodeJobResult(raw)
		if err != nil {
			return nil, err
		}
		return r, nil
	case KindAtpg:
		var r AtpgResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, err
		}
		return &r, nil
	case KindADIOrder:
		var r OrderResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, err
		}
		return &r, nil
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

// resultTiming lifts the Timing out of a typed result payload for the
// replayed job's status.
func resultTiming(res any) *Timing {
	switch r := res.(type) {
	case *JobResult:
		return r.Timing
	case *AtpgResult:
		return r.Timing
	case *OrderResult:
		return r.Timing
	}
	return nil
}
