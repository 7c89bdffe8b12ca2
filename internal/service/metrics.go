package service

import (
	"github.com/eda-go/adifo/internal/journal"
	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/obs/trace"
)

// Terminal status label values of the adifo_jobs_total metric.
var terminalStatuses = []string{StateDone, StateFailed, StateCancelled}

// Reason label values of the adifo_jobs_rejected_total metric.
const (
	// reasonDraining: Submit refused because the service is shutting
	// down.
	reasonDraining = "draining"
	// reasonOverloaded: the global queued-job bound was reached.
	reasonOverloaded = "overloaded"
	// reasonTenantLimit: the submitting tenant's own queue bound was
	// reached.
	reasonTenantLimit = "tenant_limit"
	// reasonDrain: the job was already queued when Drain dropped it —
	// the shutdown's collateral, counted rather than silent.
	reasonDrain = "drain"
)

var rejectReasons = []string{reasonDraining, reasonOverloaded, reasonTenantLimit, reasonDrain}

// serviceMetrics bundles the engine's instruments. Hot-path updates
// are single atomic operations; everything derivable at scrape time
// (uptime, the registry's cache counters) is a *Func metric so no hot
// path pays for it twice.
type serviceMetrics struct {
	reg *obs.Registry

	jobsSubmitted *obs.CounterVec // kind
	jobsTotal     *obs.CounterVec // kind, status (terminal only)
	jobsQueued    *obs.Gauge
	jobsRunning   *obs.Gauge
	queueWait     *obs.HistogramVec // kind
	duration      *obs.HistogramVec // kind
	simBlocks     *obs.Counter
	writeErrors   *obs.Counter
	draining      *obs.Gauge

	// Multi-tenant control-plane instruments: rejected submits by
	// reason, idempotency-key dedupe hits, and per-tenant queue depth.
	jobsRejected     *obs.CounterVec // reason
	jobsDeduped      *obs.Counter
	tenantQueueDepth *obs.GaugeVec // tenant
}

// jobsEnded is the adifo_jobs_total count of one terminal status,
// summed over every kind, a replayed kind this build does not serve
// included.
func (m *serviceMetrics) jobsEnded(state string) uint64 {
	return m.jobsTotal.Sum(func(kindStatus []string) bool { return kindStatus[1] == state })
}

// newServiceMetrics registers the engine's metric families on reg and
// pre-creates every (kind, status) series, so a scrape of a fresh
// server already exposes the full catalog at zero — dashboards and the
// golden exposition test see a deterministic series set regardless of
// which kinds have run.
func newServiceMetrics(reg *obs.Registry, s *Service) *serviceMetrics {
	m := &serviceMetrics{reg: reg}

	reg.GaugeVec("adifo_build_info",
		"Build metadata; value is always 1.",
		"version", "goversion").With(obs.Version, obs.GoVersion()).Set(1)
	reg.GaugeFunc("adifo_uptime_seconds",
		"Seconds since the service was constructed.",
		func() float64 { return s.now().Sub(s.start).Seconds() })

	m.jobsSubmitted = reg.CounterVec("adifo_jobs_submitted_total",
		"Jobs accepted by Submit, by kind.", "kind")
	m.jobsTotal = reg.CounterVec("adifo_jobs_total",
		"Jobs reaching a terminal state, by kind and status.", "kind", "status")
	m.jobsQueued = reg.Gauge("adifo_jobs_queued",
		"Jobs accepted but not yet claimed by a pool slot.")
	m.jobsRunning = reg.Gauge("adifo_jobs_running",
		"Jobs currently holding a pool slot.")
	m.queueWait = reg.HistogramVec("adifo_queue_wait_seconds",
		"Time from Submit to claiming a pool slot, by kind.", nil, "kind")
	m.duration = reg.HistogramVec("adifo_job_duration_seconds",
		"Run time of completed jobs (claim to done), by kind.", nil, "kind")
	m.simBlocks = reg.Counter("adifo_sim_blocks_total",
		"64-pattern simulation blocks completed across all jobs (rate = blocks/sec).")
	m.writeErrors = reg.Counter("adifo_http_write_errors_total",
		"HTTP response bodies that failed to encode after the status line was sent.")
	m.draining = reg.Gauge("adifo_draining",
		"1 once Drain has been called, 0 before.")
	m.jobsRejected = reg.CounterVec("adifo_jobs_rejected_total",
		"Submits refused (admission control, tenant limits, drain), by reason.", "reason")
	m.jobsDeduped = reg.Counter("adifo_jobs_deduplicated_total",
		"Submits answered from the idempotency-key map instead of enqueueing.")
	m.tenantQueueDepth = reg.GaugeVec("adifo_tenant_queue_depth",
		"Jobs queued per tenant (label \"default\" is the unset tenant).", "tenant")
	for _, reason := range rejectReasons {
		m.jobsRejected.With(reason)
	}
	m.tenantQueueDepth.With(tenantLabel(""))

	for _, kind := range KindNames() {
		m.jobsSubmitted.With(kind)
		m.queueWait.With(kind)
		m.duration.With(kind)
		for _, st := range terminalStatuses {
			m.jobsTotal.With(kind, st)
		}
	}

	// The registry cache owns its counters; expose them as scrape-time
	// functions instead of double-counting on the lookup path.
	stats := func(pick func(RegistryStats) uint64) func() uint64 {
		return func() uint64 { return pick(s.reg.Stats()) }
	}
	reg.CounterFunc("adifo_registry_circuit_hits_total",
		"Circuit cache lookups served from cache.",
		stats(func(r RegistryStats) uint64 { return r.CircuitHits }))
	reg.CounterFunc("adifo_registry_circuit_misses_total",
		"Circuit cache lookups that had to build (parse, levelize, collapse).",
		stats(func(r RegistryStats) uint64 { return r.CircuitMisses }))
	reg.CounterFunc("adifo_registry_circuit_evictions_total",
		"Circuit cache entries evicted by the LRU.",
		stats(func(r RegistryStats) uint64 { return r.CircuitEvictions }))
	reg.CounterFunc("adifo_registry_good_hits_total",
		"Good-machine cache lookups served from cache.",
		stats(func(r RegistryStats) uint64 { return r.GoodHits }))
	reg.CounterFunc("adifo_registry_good_misses_total",
		"Good-machine cache lookups that had to simulate.",
		stats(func(r RegistryStats) uint64 { return r.GoodMisses }))
	reg.CounterFunc("adifo_registry_good_evictions_total",
		"Good-machine cache entries evicted by the LRU.",
		stats(func(r RegistryStats) uint64 { return r.GoodEvictions }))
	reg.CounterFunc("adifo_registry_compiled_hits_total",
		"Compiled-form cache lookups served from cache.",
		stats(func(r RegistryStats) uint64 { return r.CompiledHits }))
	reg.CounterFunc("adifo_registry_compiled_misses_total",
		"Compiled-form cache lookups that had to lower the netlist.",
		stats(func(r RegistryStats) uint64 { return r.CompiledMisses }))
	reg.CounterFunc("adifo_registry_compiled_evictions_total",
		"Compiled-form cache entries evicted by the LRU.",
		stats(func(r RegistryStats) uint64 { return r.CompiledEvictions }))
	reg.GaugeFunc("adifo_registry_circuits",
		"Circuit cache entries currently resident.",
		func() float64 { return float64(s.reg.Stats().Circuits) })
	reg.GaugeFunc("adifo_registry_goods",
		"Good-machine cache entries currently resident.",
		func() float64 { return float64(s.reg.Stats().Goods) })
	reg.GaugeFunc("adifo_registry_compiled",
		"Compiled-form cache entries currently resident.",
		func() float64 { return float64(s.reg.Stats().Compiled) })

	// Journal instruments are always registered — a deterministic
	// catalog regardless of configuration — and read zero while the
	// journal is disabled. The journal package stays dependency-free;
	// the engine lifts its Stats() snapshot into the exposition.
	jstat := func(pick func(journal.Stats) uint64) func() uint64 {
		return func() uint64 {
			if s.jnl == nil {
				return 0
			}
			return pick(s.jnl.Stats())
		}
	}
	reg.GaugeFunc("adifo_journal_enabled",
		"1 when Config.JournalDir enables the write-ahead job journal.",
		func() float64 {
			if s.jnl == nil {
				return 0
			}
			return 1
		})
	reg.CounterFunc("adifo_journal_appends_total",
		"Records appended to the job journal.",
		jstat(func(j journal.Stats) uint64 { return j.Appends }))
	reg.CounterFunc("adifo_journal_appended_bytes_total",
		"Bytes appended to the job journal (frames including headers).",
		jstat(func(j journal.Stats) uint64 { return j.AppendedBytes }))
	reg.CounterFunc("adifo_journal_syncs_total",
		"Journal fsyncs; appends/syncs is the group-commit batching factor.",
		jstat(func(j journal.Stats) uint64 { return j.Syncs }))
	reg.GaugeFunc("adifo_journal_sync_seconds_total",
		"Cumulative seconds spent in journal fsyncs.",
		func() float64 {
			if s.jnl == nil {
				return 0
			}
			return s.jnl.Stats().SyncSeconds
		})
	reg.CounterFunc("adifo_journal_rotations_total",
		"Journal segment rotations.",
		jstat(func(j journal.Stats) uint64 { return j.Rotations }))
	reg.CounterFunc("adifo_journal_errors_total",
		"Journal write, sync and encode failures.",
		jstat(func(j journal.Stats) uint64 { return j.Errors }))
	reg.GaugeFunc("adifo_journal_segment",
		"Index of the journal segment currently being written.",
		func() float64 {
			if s.jnl == nil {
				return 0
			}
			return float64(s.jnl.Stats().Segment)
		})
	reg.CounterFunc("adifo_journal_replayed_records_total",
		"Well-formed records replayed from the journal at the last startup.",
		func() uint64 { return s.replayRecords })
	reg.CounterFunc("adifo_journal_requeued_total",
		"Jobs found queued or running in the journal and re-enqueued at the last startup.",
		func() uint64 { return s.replayRequeued })

	// Trace instruments: like the journal, the tracer stays
	// dependency-free and the engine lifts its flight recorder's
	// Stats() snapshot into the exposition.
	tstat := func(pick func(trace.Stats) uint64) func() uint64 {
		return func() uint64 { return pick(s.traces.Stats()) }
	}
	reg.CounterFunc("adifo_trace_spans_started_total",
		"Spans started on the trace flight recorder.",
		tstat(func(t trace.Stats) uint64 { return t.SpansStarted }))
	reg.CounterFunc("adifo_trace_spans_finished_total",
		"Spans ended and recorded on the trace flight recorder.",
		tstat(func(t trace.Stats) uint64 { return t.SpansFinished }))
	reg.CounterFunc("adifo_trace_spans_dropped_total",
		"Spans dropped by the recorder's bounds (active-trace and per-trace span caps).",
		tstat(func(t trace.Stats) uint64 { return t.SpansDropped }))
	reg.GaugeFunc("adifo_trace_recorder_traces",
		"Completed traces currently retained by the flight recorder (ring + slowest-per-kind pins).",
		func() float64 { return float64(s.traces.Stats().Traces) })

	return m
}
