// Package service turns the batch library into a long-running,
// concurrent multi-kind job engine: a registry caches the artifacts
// that are expensive to derive and safe to share (parsed circuits,
// collapsed fault lists, good-machine simulations), a bounded pool
// runs jobs, and a small job API — submit, status, result, cancel,
// streaming progress — is exposed over HTTP by cmd/adifod and consumed
// by the client package. Every job carries a cancellable context:
// Cancel aborts a queued job immediately and a running job at its next
// barrier (a 64-pattern simulation block, or one ATPG target).
//
// Jobs come in kinds, dispatched through the jobKind registry: grade
// (fault grading through the sharded simulator, the original
// workload), atpg (ADI-ordered test generation) and adi_order (the
// fault order alone). All kinds share the queue, worker pool,
// cancellation, progress streaming and LRU registry machinery; each
// kind supplies validate/run/result hooks.
//
// The engine starts no goroutine of its own beyond the jobs it runs: a
// job starts when it is submitted or when a running job frees its pool
// slot, and a progress stream is drained by the goroutine that reads
// it (the Stream caller, or the /stream handler).
//
// Everything a job shares is read-only: circuits, fault lists and
// compiled forms are immutable after construction, good values are
// written once under the registry lock, and per-job drop state lives in
// a private active list inside the simulator. Results are therefore
// bit-identical to a direct library run with equal inputs.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/journal"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/obs/trace"
	"github.com/eda-go/adifo/internal/prng"
	"github.com/eda-go/adifo/internal/tgen"
)

// Config sizes the service; zero values select sensible defaults.
type Config struct {
	// SimWorkers is the default per-job shard worker count
	// (GOMAXPROCS when 0); a job spec may override it downward.
	SimWorkers int
	// MaxConcurrentJobs bounds how many jobs simulate at once; further
	// jobs queue (default 2).
	MaxConcurrentJobs int
	// CircuitCache and GoodCache are the registry LRU capacities
	// (defaults 32 and 64 entries).
	CircuitCache int
	GoodCache    int
	// MaxRetainedJobs bounds how many finished jobs (and their
	// results) are kept for status/result queries; the oldest
	// finished jobs are evicted first, queued and running jobs are
	// never evicted (default 1024).
	MaxRetainedJobs int
	// Kinds restricts which job kinds this service accepts (nil or
	// empty = all). Submissions of other kinds are rejected with
	// ErrUnsupportedKind, so a deployment can dedicate servers to one
	// workload (e.g. grade-only backends behind a cluster
	// coordinator).
	Kinds []string
	// JournalDir, when set, enables the write-ahead job journal: every
	// lifecycle transition is appended to an append-only log under this
	// directory, and Open replays it before accepting traffic —
	// terminal jobs come back with byte-identical results, jobs that
	// were queued or running re-enqueue, and idempotency keys
	// deduplicate across the restart. Empty disables durability (the
	// pre-journal in-memory behavior).
	JournalDir string
	// MaxQueuedJobs bounds the total queued (accepted, not yet
	// running) jobs across all tenants; submits beyond it are rejected
	// with ErrOverloaded (default 4096, negative = unbounded).
	MaxQueuedJobs int
	// TenantLimits configures per-tenant scheduling weights and queue
	// bounds, keyed by the JobSpec.Tenant value. Tenants not listed
	// get weight 1 and no per-tenant queue bound.
	TenantLimits map[string]TenantLimit
	// Logger receives diagnostics the service cannot surface to any
	// caller, such as response-encoding failures after the status line
	// was sent. Records carry structured fields ("job", "kind") rather
	// than formatted strings. Nil selects the stack default (Info-level
	// text on stderr); tests and benchmarks pass obs.Nop() for quiet
	// runs.
	Logger *slog.Logger
}

// JobSpec is a job request. Exactly one of Circuit (a named embedded
// or synthetic circuit) and Bench (an inline .bench netlist) must be
// set. Kind selects the workload; the grade-specific fields (Mode, N,
// StopAtCoverage, FaultShard) and the order/gen sub-specs are only
// meaningful for their kinds and rejected elsewhere.
type JobSpec struct {
	// Kind is the job kind: "grade", "atpg" or "adi_order". Empty
	// means grade — the only kind the v1 wire knew originally, so old
	// specs keep their meaning unchanged.
	Kind string `json:"kind,omitempty"`
	// Tenant names the submitting tenant for fair scheduling and
	// admission control; empty is the default tenant. Additive to the
	// v1 wire.
	Tenant string `json:"tenant,omitempty"`
	// IdempotencyKey, when set, deduplicates submits per tenant: a
	// second submit with the same key returns the first submit's job
	// id instead of enqueueing again — including across a restart on a
	// journal-backed server. Additive to the v1 wire.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	Circuit        string `json:"circuit,omitempty"`
	Bench          string `json:"bench,omitempty"`
	// Name labels an inline netlist (cosmetic; named circuits keep
	// their own name).
	Name string `json:"name,omitempty"`
	// Patterns is the vector set: the graded vectors for grade jobs,
	// the ADI vector set U for atpg and adi_order jobs.
	Patterns PatternSpec `json:"patterns"`
	// Mode is the dropping policy: "nodrop", "drop" or "ndetect".
	// Required on grade jobs — the wire contract has no silent
	// default; requests with an empty mode are rejected. Forbidden on
	// other kinds, which simulate without dropping by definition.
	Mode string `json:"mode,omitempty"`
	// N is the drop threshold for ndetect mode.
	N int `json:"n,omitempty"`
	// Order selects the fault order for atpg and adi_order jobs.
	// Required on those kinds, forbidden on grade.
	Order *OrderSpec `json:"order,omitempty"`
	// Gen tunes an atpg job's generator; optional, atpg only.
	Gen *GenSpec `json:"gen,omitempty"`
	// Workers overrides the service's shard worker count for this job
	// (0 = service default). Results never depend on it. Out-of-range
	// values (negative, or above the service's SimWorkers) are rejected
	// at submit time rather than silently clamped.
	Workers int `json:"workers,omitempty"`
	// BlockWidth pins the simulation kernel's block width in patterns
	// per fault pass: 64, 256 or 512 (0 = automatic, which picks the
	// widest block the job's pattern count and mode justify). Results
	// never depend on it. Other values are rejected at submit time.
	BlockWidth int `json:"block_width,omitempty"`
	// StopAtCoverage, when positive, stops after the first block
	// reaching that fault coverage.
	StopAtCoverage float64 `json:"stop_at_coverage,omitempty"`
	// FaultShard, when set, restricts the job to one deterministic
	// index-range shard of the collapsed fault universe, graded against
	// the full pattern set. Dropping decisions are per-fault, so
	// disjoint shards have no cross-fault control dependence and a set
	// of shard results merges bit-identically to an unsharded run (the
	// internal/cluster coordinator relies on this). Incompatible with
	// StopAtCoverage, whose cut-off depends on global coverage. Grade
	// jobs only: the other kinds are sequential over shared state and
	// reject it.
	FaultShard *FaultShard `json:"fault_shard,omitempty"`
}

// FaultShard selects shard Index of Count over the collapsed fault
// universe: the half-open index range ShardRange(faults, Index, Count).
type FaultShard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// ShardRange returns the half-open collapsed-fault index range
// [lo, hi) of shard index of count over n faults. The count ranges
// partition [0, n) exactly, each of size n/count or n/count+1, so the
// partition is a pure function of (n, count) — every party (service,
// cluster coordinator, tests) derives the same shards.
func ShardRange(n, index, count int) (lo, hi int) {
	return index * n / count, (index + 1) * n / count
}

// PatternSpec selects the vector set: exactly one of Random,
// Exhaustive and Vectors must be set.
type PatternSpec struct {
	Random     *RandomSpec `json:"random,omitempty"`
	Exhaustive bool        `json:"exhaustive,omitempty"`
	// Vectors are explicit input vectors as bit strings ("0110"), one
	// character per primary input.
	Vectors []string `json:"vectors,omitempty"`
}

// RandomSpec requests N uniformly random vectors from the library
// PRNG seeded with Seed, reproducible across runs and hosts.
type RandomSpec struct {
	N    int    `json:"n"`
	Seed uint64 `json:"seed"`
}

// Job states. Queued and running jobs may still change state; done,
// failed and cancelled are terminal.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobStatus is the pollable view of a job. Progress fields update at
// every barrier: a 64-pattern simulation block, or one ATPG target for
// the generation phase of atpg jobs.
type JobStatus struct {
	ID string `json:"id"`
	// Kind is the job's canonical kind name ("grade", "atpg",
	// "adi_order").
	Kind string `json:"kind,omitempty"`
	// Tenant echoes the spec's tenant (empty = default tenant).
	Tenant  string `json:"tenant,omitempty"`
	State   string `json:"state"`
	Circuit string `json:"circuit,omitempty"`
	Faults  int    `json:"faults,omitempty"`
	Vectors int    `json:"vectors,omitempty"`
	Blocks  int    `json:"blocks,omitempty"`

	BlocksDone  int `json:"blocks_done"`
	VectorsUsed int `json:"vectors_used"`
	Detected    int `json:"detected"`
	Active      int `json:"active"`

	// ATPG-phase progress of atpg jobs: targets attempted of the total
	// order, and tests generated so far.
	Targets     int `json:"targets,omitempty"`
	TargetsDone int `json:"targets_done,omitempty"`
	Tests       int `json:"tests,omitempty"`

	// FaultShard echoes the spec's shard selector for shard jobs;
	// Faults then counts only the shard's faults.
	FaultShard *FaultShard `json:"fault_shard,omitempty"`

	// Timing is the job's wall-clock record: submit/start/finish
	// timestamps, queue wait, and per-phase durations. Additive to the
	// v1 wire — servers predating it simply omit the field.
	Timing *Timing `json:"timing,omitempty"`

	// TraceID is the job's distributed-trace id (32 lowercase hex
	// digits): the caller's trace when the submit carried a traceparent
	// header, a server-minted one otherwise. Feed it to /debug/traces
	// on the server's debug listener. Additive to the v1 wire.
	TraceID string `json:"trace_id,omitempty"`

	Error string `json:"error,omitempty"`
}

// ProgressEvent is one entry of a job's streaming progress feed: one
// per 64-pattern simulation block (all kinds), and one per ATPG target
// during the generation phase of atpg jobs (Target/Targets/Tests set,
// block fields zero).
type ProgressEvent struct {
	JobID       string `json:"job_id"`
	Kind        string `json:"kind,omitempty"`
	State       string `json:"state"`
	Block       int    `json:"block"`
	Blocks      int    `json:"blocks"`
	VectorsUsed int    `json:"vectors_used"`
	Detected    int    `json:"detected"`
	Active      int    `json:"active"`

	// ATPG-phase fields: Target counts order positions attempted so
	// far, Targets is the order length, Tests the vectors generated.
	Target  int `json:"target,omitempty"`
	Targets int `json:"targets,omitempty"`
	Tests   int `json:"tests,omitempty"`
}

// JobResult is the full outcome of a grade job, matching what a
// direct library run returns. The other kinds have their own result
// payloads (AtpgResult, OrderResult), served by the same result
// endpoint and told apart by the Kind field.
type JobResult struct {
	ID          string `json:"id"`
	Kind        string `json:"kind,omitempty"`
	Circuit     string `json:"circuit"`
	Fingerprint string `json:"fingerprint"`
	Mode        string `json:"mode"`
	// Faults counts the faults this job graded (the shard size for
	// shard jobs); TotalFaults is the full collapsed universe, so shard
	// results carry everything a merge needs to validate completeness.
	Faults      int `json:"faults"`
	TotalFaults int `json:"total_faults"`
	// FaultShard echoes the spec's shard selector; nil on unsharded
	// jobs and on merged cluster results.
	FaultShard  *FaultShard `json:"fault_shard,omitempty"`
	Vectors     int         `json:"vectors"`
	VectorsUsed int         `json:"vectors_used"`
	Detected    int         `json:"detected"`
	Coverage    float64     `json:"coverage"`
	// Ndet[u] is the number of faults detected by vector u under the
	// job's dropping policy.
	Ndet []int `json:"ndet"`
	// PerFault is indexed by collapsed fault index.
	PerFault []FaultResult `json:"per_fault"`
	// Timing is the job's wall-clock record, attached by the engine at
	// the terminal transition (merged cluster results carry the merge
	// phase instead of a single server's run).
	Timing *Timing `json:"timing,omitempty"`
	// TraceID is the job's distributed-trace id, identical to the one
	// on the status. Additive to the v1 wire.
	TraceID string `json:"trace_id,omitempty"`
}

// FaultResult is the per-fault grading outcome.
type FaultResult struct {
	F        int    `json:"f"`
	Name     string `json:"name"`
	DetCount int    `json:"det_count"`
	FirstDet int    `json:"first_det"`
	// Det lists the detecting vector indices (the detection set D(f)),
	// present in nodrop and ndetect modes.
	Det []int `json:"det,omitempty"`
}

// Stats is the service-level counter snapshot.
type Stats struct {
	Registry      RegistryStats `json:"registry"`
	JobsSubmitted uint64        `json:"jobs_submitted"`
	JobsDone      uint64        `json:"jobs_done"`
	JobsFailed    uint64        `json:"jobs_failed"`
	JobsCancelled uint64        `json:"jobs_cancelled"`
	// JobsDeduped counts submits answered from the idempotency-key
	// map instead of enqueueing; JobsRejected counts submits refused
	// by admission control or drain (see the
	// adifo_jobs_rejected_total metric for the per-reason split).
	JobsDeduped  uint64 `json:"jobs_deduped"`
	JobsRejected uint64 `json:"jobs_rejected"`
	JobsRunning  int    `json:"jobs_running"`
	JobsQueued   int    `json:"jobs_queued"`
	// Workers is the server's configured per-job shard worker bound
	// (Config.SimWorkers). A cluster coordinator's Stats sums it over
	// its backends. Omitted by old servers; 0 means unknown.
	Workers int `json:"workers,omitempty"`
	// UptimeSeconds is the service's age; Version the build version —
	// the same values the adifo_uptime_seconds and adifo_build_info
	// metrics expose.
	UptimeSeconds float64 `json:"uptime_seconds"`
	Version       string  `json:"version"`
}

// Errors returned by Submit, Result and Cancel.
var (
	ErrNotFound  = errors.New("service: job not found")
	ErrNotDone   = errors.New("service: job not finished")
	ErrCancelled = errors.New("service: job cancelled")
	ErrFinished  = errors.New("service: job already finished")
	// ErrDraining is returned by Submit once Drain has been called:
	// the service is shutting down and accepts no new jobs.
	ErrDraining = errors.New("service: draining, not accepting new jobs")
)

// Service is the concurrent fault-grading engine.
type Service struct {
	cfg    Config
	reg    *Registry
	wg     sync.WaitGroup
	logger *slog.Logger

	// jnl is the write-ahead job journal, nil when Config.JournalDir
	// is unset. Appends happen outside mu: the journal has its own
	// lock and group-commits concurrent writers.
	jnl *journal.Journal

	// met holds the engine's instruments, registered on metrics; start
	// anchors the uptime gauge. now is the clock, swappable by tests
	// that pin timing values.
	metrics *obs.Registry
	met     *serviceMetrics
	start   time.Time
	now     func() time.Time

	// traces is the in-process flight recorder completed job traces
	// land in, served over /debug/traces by embedders.
	traces *trace.Recorder

	// grade, when set, supplies the body of every grade job (see
	// GradeFunc).
	grade GradeFunc

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // job ids in submission order
	sched *scheduler
	// running counts the pool slots in use, at most
	// Config.MaxConcurrentJobs.
	running int
	// idem maps tenant-scoped idempotency keys to job ids (rebuilt
	// from the journal at recovery).
	idem     map[string]string
	seq      uint64
	draining bool
	// replayRecords and replayRequeued describe the recovery pass, for
	// the journal replay metrics.
	replayRecords  uint64
	replayRequeued uint64
}

type job struct {
	id   string
	spec JobSpec
	kind jobKind
	// tenant is the spec's tenant; idemKey the tenant-scoped dedupe
	// map key ("" when the spec carried no idempotency key) — kept on
	// the job so eviction can drop the map entry with it.
	tenant  string
	idemKey string

	// ctx governs the job's work; cancel is invoked by Service.Cancel
	// and aborts the run at the next barrier (simulation block or ATPG
	// target).
	ctx    context.Context
	cancel context.CancelFunc

	// tctx is the job's trace context: recorder + the trace identity
	// minted (or joined from the caller's traceparent) at submit. run()
	// replaces it with the root span's context, so phase and journal
	// spans nest under the job span. span is that root span, ended
	// exactly once by the terminal transition. Both nil on bare test
	// jobs — every consumer tolerates that.
	tctx context.Context
	span *trace.Span

	// now and met are the owning service's clock and instruments,
	// copied in at submit so the hot paths (phase stopwatches, block
	// counters) never reach back through the service.
	now func() time.Time
	met *serviceMetrics

	mu     sync.Mutex
	status JobStatus
	timing Timing
	// A done job holds its result once. result is the kind-specific
	// payload (*JobResult for grade, *AtpgResult for atpg, *OrderResult
	// for adi_order) until its v1 wire bytes are first needed: by the
	// journal's finished record, or on an engine without a journal by
	// the first GET /result. From then on raw holds those bytes and
	// result is nil. A replayed job holds raw only.
	result    any
	raw       []byte
	followers []*follower
}

// encodeHook, when a test sets it, sees every result payload the engine
// encodes into a job's raw bytes.
var encodeHook atomic.Pointer[func(res any)]

// bytesLocked returns done job j's v1 result bytes. A job that still
// holds its typed payload is encoded now and keeps only the bytes; if
// the encoding fails it keeps the payload. Called with j.mu held, so
// concurrent callers encode a job once.
func (j *job) bytesLocked() ([]byte, error) {
	if j.raw == nil {
		if hook := encodeHook.Load(); hook != nil {
			(*hook)(j.result)
		}
		raw, err := encodeResult(j.result)
		if err != nil {
			return nil, err
		}
		j.raw, j.result = raw, nil
	}
	return j.raw, nil
}

// New returns a ready service. It panics if Config.JournalDir is set
// but the journal cannot be opened or replayed — programs enabling
// durability should call Open and handle the error.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open returns a ready service. With Config.JournalDir set it opens
// the write-ahead journal and replays it before returning, so by the
// time any listener accepts traffic every pre-crash terminal job
// answers result queries with byte-identical payloads and every job
// that was queued or running is queued again.
func Open(cfg Config) (*Service, error) { return OpenWithGrade(cfg, nil) }

// OpenWithGrade is Open for a service whose grade jobs run the bodies
// grade supplies in place of the local simulator.
func OpenWithGrade(cfg Config, grade GradeFunc) (*Service, error) {
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = 2
	}
	if cfg.CircuitCache <= 0 {
		cfg.CircuitCache = 32
	}
	if cfg.GoodCache <= 0 {
		cfg.GoodCache = 64
	}
	if cfg.MaxRetainedJobs <= 0 {
		cfg.MaxRetainedJobs = 1024
	}
	if cfg.MaxQueuedJobs == 0 {
		cfg.MaxQueuedJobs = 4096
	}
	s := &Service{
		cfg:     cfg,
		reg:     NewRegistry(cfg.CircuitCache, cfg.GoodCache),
		jobs:    make(map[string]*job),
		sched:   newScheduler(),
		idem:    make(map[string]string),
		logger:  obs.Or(cfg.Logger),
		metrics: obs.NewRegistry(),
		now:     time.Now,
		grade:   grade,
	}
	s.start = s.now()
	s.traces = trace.NewRecorder()
	s.met = newServiceMetrics(s.metrics, s)
	// A pruned tenant's gauge label leaves the exposition with it, so
	// /metrics cardinality tracks live tenants, not every tenant name
	// the server has ever seen.
	s.sched.onPrune = func(tenant string) {
		s.met.tenantQueueDepth.Delete(tenantLabel(tenant))
	}
	if cfg.JournalDir != "" {
		// Open before replay: the journal only ever appends to a fresh
		// segment, so the replay scan sees every pre-crash segment plus
		// an empty new one — and recovery can itself journal (a
		// replayed spec that no longer validates is recorded as
		// failed).
		jnl, err := journal.Open(cfg.JournalDir, journal.Options{})
		if err != nil {
			return nil, err
		}
		s.jnl = jnl
		if err := s.recover(cfg.JournalDir); err != nil {
			jnl.Close()
			return nil, err
		}
		// Recovery fills s.jobs without s.mu, so the jobs it queued
		// start only once it is over.
		s.mu.Lock()
		s.startLocked()
		s.mu.Unlock()
	}
	return s, nil
}

// Registry exposes the cache (stats and pre-warming).
func (s *Service) Registry() *Registry { return s.reg }

// Metrics exposes the service's metric registry, so embedders (the
// adifod debug listener, the facade) can mount its exposition handler
// elsewhere or register their own instruments alongside the engine's.
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// Traces exposes the service's trace flight recorder, so embedders
// (the adifod debug listener, the facade) can mount its /debug/traces
// handler.
func (s *Service) Traces() *trace.Recorder { return s.traces }

// validateSpec performs everything Submit checks before enqueueing —
// the common validation (circuit reference, kind dispatch, worker
// bound, pattern spec, shardability) followed by the kind's own hook —
// and resolves the spec's kind. It spawns nothing, so it is also the
// surface the wire fuzz tests drive with arbitrary decoded specs.
func (s *Service) validateSpec(spec JobSpec) (jobKind, error) {
	if _, err := CircuitKey(spec); err != nil {
		return nil, err
	}
	kindName := NormalizeKind(spec.Kind)
	k, ok := jobKinds[kindName]
	if !ok {
		return nil, unsupportedKindError(kindName, KindNames())
	}
	if !s.kindAllowed(kindName) {
		return nil, unsupportedKindError(kindName, s.cfg.Kinds)
	}
	if spec.Workers < 0 || spec.Workers > s.cfg.SimWorkers {
		return nil, fmt.Errorf("workers %d out of range [0, %d] (0 = service default)",
			spec.Workers, s.cfg.SimWorkers)
	}
	if err := fsim.CheckBlockWidth("block_width", spec.BlockWidth); err != nil {
		return nil, err
	}
	if err := validateTenancy(spec); err != nil {
		return nil, err
	}
	if err := validatePatterns(spec.Patterns); err != nil {
		return nil, err
	}
	if spec.FaultShard != nil && !k.shardable() {
		return nil, fmt.Errorf("fault_shard applies only to grade jobs, not %q", kindName)
	}
	if err := k.validate(spec); err != nil {
		return nil, err
	}
	return k, nil
}

// kindFor validates spec and resolves the kind that runs it: on a
// service opened with a GradeFunc, a grade job runs the body it
// supplies.
func (s *Service) kindFor(ctx context.Context, spec JobSpec) (jobKind, error) {
	k, err := s.validateSpec(spec)
	if _, grade := k.(gradeKind); err != nil || !grade || s.grade == nil {
		return k, err
	}
	body, err := s.grade(ctx, spec)
	if err != nil {
		return nil, err
	}
	return bodyKind{body: body}, nil
}

// kindAllowed reports whether this server serves the given canonical
// kind name (Config.Kinds empty = all).
func (s *Service) kindAllowed(kindName string) bool {
	if len(s.cfg.Kinds) == 0 {
		return true
	}
	for _, k := range s.cfg.Kinds {
		if NormalizeKind(k) == kindName {
			return true
		}
	}
	return false
}

// Submit validates spec, enqueues a job on its tenant's queue and
// returns its id. The job runs asynchronously on the bounded pool;
// resolution errors (bad netlist, unknown name) surface as a failed
// job status.
//
// A spec carrying an idempotency key that an earlier accepted submit
// already used (same tenant) is not enqueued again: Submit returns the
// original job id. Admission control rejects submits with
// ErrOverloaded once the global or per-tenant queue bound is reached.
// On a journal-backed service Submit returns only after the submitted
// record is durable — an acknowledged job survives a crash.
func (s *Service) Submit(spec JobSpec) (string, error) {
	return s.SubmitContext(context.Background(), spec)
}

// SubmitContext is Submit carrying the caller's context for trace
// propagation: when ctx holds a span or a remote SpanContext (extracted
// from an incoming traceparent header), the job joins that trace;
// otherwise a fresh trace id is minted. The context's cancellation does
// NOT govern the job — jobs outlive their submit request by design and
// are aborted through Cancel — but it does bound a GradeFunc's call.
func (s *Service) SubmitContext(ctx context.Context, spec JobSpec) (string, error) {
	k, err := s.kindFor(ctx, spec)
	if err != nil {
		return "", err
	}

	// Phase 1 (under mu): dedupe, admission, id + idempotency-key
	// reservation, registration. The job is visible to Status and to
	// Drain's wg accounting from here on, but not yet queued.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.jobsRejected.With(reasonDraining).Inc()
		return "", ErrDraining
	}
	ikey := idemCacheKey(spec.Tenant, spec.IdempotencyKey)
	if ikey != "" {
		if id, ok := s.idem[ikey]; ok {
			s.mu.Unlock()
			s.met.jobsDeduped.Inc()
			return id, nil
		}
	}
	if err := s.admitLocked(spec.Tenant); err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.seq++
	id := fmt.Sprintf("j%d", s.seq)
	j := s.newJob(ctx, id, spec, k)
	s.jobs[id] = j
	s.order = append(s.order, id)
	if ikey != "" {
		s.idem[ikey] = id
	}
	// Registered under the lock: a concurrent Drain either sees the
	// draining flag before this Submit passed the check above, or its
	// wg.Wait observes this job — never neither.
	s.wg.Add(1)
	s.mu.Unlock()

	// Phase 2 (no locks): make the submitted record durable. The
	// journal group-commits concurrent submitters into shared fsyncs.
	if s.jnl != nil {
		if err := s.journalSubmitted(j); err != nil {
			s.mu.Lock()
			delete(s.jobs, id)
			if ikey != "" {
				delete(s.idem, ikey)
			}
			for i, oid := range s.order {
				if oid == id {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
			s.wg.Done()
			return "", fmt.Errorf("service: journal: %w", err)
		}
	}

	// Phase 3 (under mu): count, enqueue, and start it if a slot is
	// free. A Cancel or Drain that raced phase 2 only cancelled j's
	// context — the job still starts and run() performs the cancelled
	// transition.
	s.mu.Lock()
	s.enqueueLocked(j)
	s.evictOldJobsLocked()
	s.startLocked()
	s.mu.Unlock()
	return id, nil
}

// newJob builds a queued job for spec. The submit context contributes
// only the trace identity: the job joins the caller's trace when one is
// on ctx, else mints its own, and the trace id is visible on the status
// from the first poll. Caller holds s.mu (for the clock) and registers
// the returned job itself.
func (s *Service) newJob(ctx context.Context, id string, spec JobSpec, k jobKind) *job {
	jctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      id,
		spec:    spec,
		kind:    k,
		tenant:  spec.Tenant,
		idemKey: idemCacheKey(spec.Tenant, spec.IdempotencyKey),
		ctx:     jctx,
		cancel:  cancel,
		now:     s.now,
		met:     s.met,
		timing:  Timing{SubmittedAt: s.now()},
		status: JobStatus{
			ID:         id,
			Kind:       NormalizeKind(spec.Kind),
			Tenant:     spec.Tenant,
			State:      StateQueued,
			FaultShard: spec.FaultShard,
		},
	}
	// The trace context is rooted on Background, not the submit
	// request's context: the job outlives the request.
	sc := trace.SpanContextFromContext(ctx)
	if !sc.IsValid() {
		sc = trace.SpanContext{TraceID: trace.NewTraceID(), Flags: trace.FlagSampled}
	}
	j.tctx = trace.ContextWithRemote(trace.WithRecorder(context.Background(), s.traces), sc)
	j.status.TraceID = sc.TraceID.String()
	j.status.Timing = j.timing.Snapshot()
	return j
}

// admitLocked is the admission check: reject (rather than queue
// without bound) once the global or per-tenant queued-job budget is
// spent, counting the rejection by reason. Caller holds s.mu.
func (s *Service) admitLocked(tenant string) error {
	if s.cfg.MaxQueuedJobs > 0 && s.sched.queued >= s.cfg.MaxQueuedJobs {
		s.met.jobsRejected.With(reasonOverloaded).Inc()
		return fmt.Errorf("%w (%d jobs queued, global bound %d)",
			ErrOverloaded, s.sched.queued, s.cfg.MaxQueuedJobs)
	}
	if tl, ok := s.cfg.TenantLimits[tenant]; ok && tl.MaxQueued > 0 {
		if d := s.sched.depth(tenant); d >= tl.MaxQueued {
			s.met.jobsRejected.With(reasonTenantLimit).Inc()
			return fmt.Errorf("%w (tenant %q has %d jobs queued, bound %d)",
				ErrOverloaded, tenantLabel(tenant), d, tl.MaxQueued)
		}
	}
	return nil
}

// enqueueLocked puts j on its tenant queue and settles the queue
// gauges. Caller holds s.mu.
func (s *Service) enqueueLocked(j *job) {
	tq := s.sched.tenantFor(j.tenant, s.cfg.TenantLimits)
	s.sched.enqueue(tq, j)
	s.met.jobsSubmitted.With(j.status.Kind).Inc()
	s.met.jobsQueued.Inc()
	s.met.tenantQueueDepth.With(tenantLabel(j.tenant)).Inc()
}

// startLocked starts queued jobs, picked across tenant queues in
// weighted fair order, while a pool slot is free. It runs wherever a
// job is queued or a slot frees: Submit, the end of run, and the end
// of Open's journal recovery. Caller holds s.mu.
func (s *Service) startLocked() {
	for s.running < s.cfg.MaxConcurrentJobs && s.sched.queued > 0 {
		j := s.sched.pop()
		s.met.tenantQueueDepth.With(tenantLabel(j.tenant)).Dec()
		s.running++
		go s.run(j)
	}
}

// lookup returns job id, nil if it is unknown or evicted.
func (s *Service) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Status returns the current status of a job.
func (s *Service) Status(id string) (JobStatus, bool) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, true
}

// Body returns the Body a GradeFunc supplied for job id: nil for an
// unknown id or a job the local simulator runs.
func (s *Service) Body(id string) Body {
	j := s.lookup(id)
	if j == nil {
		return nil
	}
	bk, _ := j.kind.(bodyKind)
	return bk.body
}

// Jobs returns the status of every known job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Status(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// ResultAny returns the kind-specific outcome of a finished job —
// *JobResult for grade, *AtpgResult for atpg, *OrderResult for
// adi_order. It returns ErrNotFound for unknown ids, ErrNotDone while
// the job is queued or running, ErrCancelled for cancelled jobs, and
// the job's failure for failed jobs.
//
// Once the job holds its result as v1 bytes (on a journaled engine
// from its finish on, elsewhere from its first GET /result), each call
// decodes a fresh value that the caller owns. Before that the value is
// the job's own, which a later GET /result encodes, so it is read-only.
func (s *Service) ResultAny(id string) (any, error) {
	j, err := s.lockDone(id)
	if err != nil {
		return nil, err
	}
	res, raw, kind := j.result, j.raw, j.status.Kind
	j.mu.Unlock()
	if raw == nil {
		return res, nil
	}
	return decodeResult(kind, raw)
}

// lockDone returns job id with its lock held once the job is done;
// otherwise it returns the error the job's state calls for and holds
// no lock.
func (s *Service) lockDone(id string) (*job, error) {
	j := s.lookup(id)
	if j == nil {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	var err error
	switch j.status.State {
	case StateDone:
		return j, nil
	case StateFailed:
		err = fmt.Errorf("service: job %s failed: %s", id, j.status.Error)
	case StateCancelled:
		err = fmt.Errorf("%w (job %s)", ErrCancelled, id)
	default:
		err = ErrNotDone
	}
	j.mu.Unlock()
	return nil, err
}

// Result is ResultAny for grade jobs, the dominant workload; it errors
// on jobs of other kinds instead of guessing at a conversion. The
// caller owns the value it gets as ResultAny says.
func (s *Service) Result(id string) (*JobResult, error) {
	v, err := s.ResultAny(id)
	if err != nil {
		return nil, err
	}
	r, ok := v.(*JobResult)
	if !ok {
		return nil, fmt.Errorf("service: job %s is not a grade job (its result is %T); fetch it with ResultAny", id, v)
	}
	return r, nil
}

// Cancel aborts a job. A queued job transitions to cancelled
// immediately; a running job is interrupted at its next block barrier
// and transitions shortly after (poll Status or follow Stream to
// observe the terminal state). Cancel is idempotent on already
// cancelled jobs. It returns ErrNotFound for unknown ids and
// ErrFinished for jobs that already completed or failed; the returned
// status is the job's state as of the call.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, ErrNotFound
	}
	// Winning the dequeue makes this Cancel the owner of the terminal
	// transition: startLocked can no longer start the job, so the slot
	// it would have used is never consumed.
	dequeued := s.sched.remove(j)
	if dequeued {
		s.met.tenantQueueDepth.With(tenantLabel(j.tenant)).Dec()
	}
	s.mu.Unlock()
	// Signal first: if the run goroutine is between barriers it will
	// observe the cancellation at the next one.
	j.cancel()

	if dequeued {
		s.finish(j, StateCancelled, nil, nil)
		s.wg.Done()
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		return st, nil
	}

	j.mu.Lock()
	st := j.status
	j.mu.Unlock()
	switch st.State {
	case StateDone, StateFailed:
		return st, ErrFinished
	}
	// Cancelled already, running (stops within one block; the run
	// goroutine performs the terminal transition), or in the submit
	// window before it is queued, after which run() observes the
	// cancelled context as soon as a slot starts it.
	return st, nil
}

// follower is one Stream's queue of a job's progress events. The job
// appends to it under j.mu and never waits on the reader; the reader's
// own goroutine drains it. A job publishes a bounded number of events
// (one per block, plus one per ATPG target), so the queue, formally
// unbounded, is bounded by the job. A drop-on-full channel would lose
// blocks whenever the reader falls behind the job, as a cluster's
// merged feed does when a shard rerun catches up in one burst.
type follower struct {
	queue []ProgressEvent
	done  bool          // the job is terminal: nothing more will be queued
	wake  chan struct{} // capacity 1: queue or done changed since the last drain
}

// wakeUp tells the reader that its follower changed, without blocking
// when a wake-up is already pending. Called with j.mu held.
func (f *follower) wakeUp() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// follow registers a follower for every event j publishes from now on;
// on a job that is already terminal it starts done.
func (j *job) follow() *follower {
	f := &follower{wake: make(chan struct{}, 1)}
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.status.State) {
		f.done = true
	} else {
		j.followers = append(j.followers, f)
	}
	return f
}

// drain calls fn (when non-nil) with every event queued on f, in
// order, and returns j's final status once it is terminal. fn runs
// outside j.mu on the caller's goroutine. ctx ends the wait and
// unregisters f; it does not touch the job.
func (j *job) drain(ctx context.Context, f *follower, fn func(ProgressEvent)) (JobStatus, error) {
	defer func() {
		j.mu.Lock()
		j.followers = slices.DeleteFunc(j.followers, func(x *follower) bool { return x == f })
		j.mu.Unlock()
	}()
	for {
		j.mu.Lock()
		evs, done, st := f.queue, f.done, j.status
		f.queue = nil
		j.mu.Unlock()
		for _, ev := range evs {
			if ctx.Err() != nil {
				return JobStatus{}, ctx.Err()
			}
			if fn != nil {
				fn(ev)
			}
		}
		if done {
			return st, nil
		}
		select {
		case <-f.wake:
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
	}
}

// Stream calls fn (when non-nil) with every progress event job id
// publishes after the call, in order, on the calling goroutine, and
// returns the job's final status once it is terminal — at once, with
// no event, for a job that already is. ctx aborts the stream, not the
// job.
func (s *Service) Stream(ctx context.Context, id string, fn func(ProgressEvent)) (JobStatus, error) {
	j := s.lookup(id)
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return j.drain(ctx, j.follow(), fn)
}

// Stats returns the service counters, including the registry cache
// hit/miss counters. The job counts are the /metrics instruments, each
// family summed over all its series.
func (s *Service) Stats() Stats {
	m := s.met
	return Stats{
		Registry:      s.reg.Stats(),
		JobsSubmitted: m.jobsSubmitted.Sum(nil),
		JobsDone:      m.jobsEnded(StateDone),
		JobsFailed:    m.jobsEnded(StateFailed),
		JobsCancelled: m.jobsEnded(StateCancelled),
		JobsDeduped:   m.jobsDeduped.Value(),
		JobsRejected:  m.jobsRejected.Sum(nil),
		JobsRunning:   int(m.jobsRunning.Value()),
		JobsQueued:    int(m.jobsQueued.Value()),
		Workers:       s.cfg.SimWorkers,
		UptimeSeconds: s.now().Sub(s.start).Seconds(),
		Version:       obs.Version,
	}
}

// Close waits for all submitted jobs to finish, then closes the
// journal of a journal-backed service. The engine has no goroutine of
// its own to stop, so on a service without a journal a job submitted
// after Close still runs; on a journal-backed one such a Submit fails,
// because it cannot make the job durable, and leaves no job. Use Drain
// for an orderly shutdown that rejects new jobs. Idempotent, and safe
// after Drain.
func (s *Service) Close() {
	s.wg.Wait()
	if s.jnl != nil {
		s.jnl.Close()
	}
}

// Drain shuts the service down gracefully: Submit rejects new jobs
// with ErrDraining from the moment Drain is called, every queued job
// is dropped — cancelled and counted in the jobs_rejected_total
// metric's drain reason, so a shutdown's collateral is visible, not
// silent — every running job is cancelled at its next 64-pattern block
// barrier (their streams end with the cancelled status), and Drain
// returns once all job goroutines have finished. On a journal-backed
// service the drops are journaled as cancelled, so a restart does not
// resurrect them. Idempotent: concurrent and repeated calls all wait
// for the same quiescent state.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	dropped := s.sched.drainAll()
	for _, j := range dropped {
		// drainAll already deleted every non-default tenant's gauge
		// label via onPrune; decrementing those here would resurrect
		// the label at a negative value. Only the default tenant's
		// pre-created, never-pruned series still needs the decrement.
		if j.tenant == "" {
			s.met.tenantQueueDepth.With(tenantLabel("")).Dec()
		}
	}
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	s.met.draining.Set(1)
	for _, j := range dropped {
		s.met.jobsRejected.With(reasonDrain).Inc()
		j.cancel()
		s.finish(j, StateCancelled, nil, nil)
		s.wg.Done()
	}
	for _, id := range ids {
		// ErrFinished and ErrNotFound (evicted) are fine: the job is
		// already out of the way.
		s.Cancel(id)
	}
	s.Close()
}

// evictOldJobsLocked drops the oldest finished jobs once the retained
// set exceeds the configured bound, so a long-running server's memory
// stays proportional to MaxRetainedJobs rather than to its lifetime
// request count. Queued and running jobs are always kept. Caller
// holds s.mu.
func (s *Service) evictOldJobsLocked() {
	excess := len(s.order) - s.cfg.MaxRetainedJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		done := terminal(j.status.State)
		j.mu.Unlock()
		if excess > 0 && done {
			delete(s.jobs, id)
			if j.idemKey != "" && s.idem[j.idemKey] == id {
				delete(s.idem, j.idemKey)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// run executes one started job: it claims the running state, hands
// the body to the job's kind, and performs the terminal transition the
// kind's outcome calls for. startLocked took the pool slot; run frees
// it and starts the next queued job. A context error from the kind
// means the job was cancelled at a barrier; any other error fails the
// job. The body runs under pprof labels (kind, job), so CPU profiles
// attribute simulator and generator samples to the job that spent them
// — worker goroutines spawned inside inherit the labels.
func (s *Service) run(j *job) {
	defer s.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			s.finish(j, StateFailed, nil, fmt.Errorf("internal error: %v", p))
		}
	}()
	defer func() {
		s.mu.Lock()
		s.running--
		s.startLocked()
		s.mu.Unlock()
	}()

	// A job cancelled after startLocked popped it (or in the submit
	// window before it was enqueued) reaches here with its context
	// already cancelled; transition it without working.
	if j.ctx.Err() != nil {
		s.finish(j, StateCancelled, nil, nil)
		return
	}

	// Running covers circuit resolution too: generating a synthetic
	// suite circuit can take seconds and must not look queued.
	j.mu.Lock()
	if terminal(j.status.State) {
		j.mu.Unlock()
		return
	}
	j.status.State = StateRunning
	j.timing.StartedAt = s.now()
	j.timing.QueueWaitSeconds = j.timing.StartedAt.Sub(j.timing.SubmittedAt).Seconds()
	j.status.Timing = j.timing.Snapshot()
	kind, wait := j.status.Kind, j.timing.QueueWaitSeconds
	// The gauges move under the lock that publishes the state, as in
	// finish.
	s.met.jobsQueued.Dec()
	s.met.jobsRunning.Inc()
	j.mu.Unlock()
	s.met.queueWait.With(kind).Observe(wait)

	// The job's root span: phase and journal spans started under j.tctx
	// from here on nest beneath it, and ending it (in finish) completes
	// the trace in the flight recorder.
	tctx, span := trace.Start(j.tctx, "job."+kind, trace.Root())
	span.SetAttr("kind", kind)
	span.SetAttr("job", j.id)
	j.mu.Lock()
	j.tctx, j.span = tctx, span
	j.mu.Unlock()

	var result any
	var err error
	pprof.Do(j.ctx, pprof.Labels("kind", kind, "job", j.id), func(context.Context) {
		result, err = j.kind.run(s, j)
	})
	switch {
	case err == nil:
		s.finish(j, StateDone, result, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.finish(j, StateCancelled, nil, nil)
	default:
		s.finish(j, StateFailed, nil, err)
	}
}

// finish performs a job's terminal transition — the single path every
// outcome (done, failed, cancelled-queued, cancelled-running,
// drain-dropped, panic recovery) goes through: state, timing, result
// (on a journaled engine, its v1 bytes) and the job-count instruments
// under the job lock, where its streams end too, then the duration
// histogram and the journal's finished record. At most one caller
// wins; later calls are no-ops, so racing finishers (a Cancel against
// the run goroutine, say) are safe.
func (s *Service) finish(j *job, state string, result any, cause error) {
	j.mu.Lock()
	if terminal(j.status.State) {
		j.mu.Unlock()
		return
	}
	j.status.State = state
	if cause != nil {
		j.status.Error = cause.Error()
	}
	if result != nil {
		j.result = result
	}
	started := j.finalizeLocked()
	// The journal's finished record carries a done job's v1 bytes.
	// Encoding them before the streams end swaps the job to those
	// bytes, so a GET /result that follows a stream serves them as they
	// are.
	var raw []byte
	if s.jnl != nil && state == StateDone && j.result != nil {
		var err error
		if raw, err = j.bytesLocked(); err != nil {
			s.logger.Error("journal result encode failed", "job", j.id, "err", err)
		}
	}
	kind := j.status.Kind
	// Count under the lock that publishes the state, so a caller that
	// has seen it through Status or a stream sees it in Stats too.
	s.countTerminal(kind, state, started)
	run := j.timing.RunSeconds
	st := j.status
	for _, f := range j.followers {
		f.done = true
		f.wakeUp()
	}
	j.followers = nil
	tctx := j.tctx
	j.mu.Unlock()
	if tctx == nil {
		tctx = context.Background()
	}
	switch state {
	case StateDone:
		s.met.duration.With(kind).Observe(run)
	case StateFailed:
		s.logger.ErrorContext(tctx, "job failed", "job", j.id, "kind", kind, "err", cause)
	}
	s.journalFinished(j, st, raw)
	j.endSpan(state, cause)
}

// endSpan closes the job's root span — the last act of the terminal
// transition, so the completed trace already carries the journal's
// finished-append span. A job that never ran (cancelled while queued)
// has no root span yet; one is opened and closed on the spot so its
// trace still completes in the recorder.
func (j *job) endSpan(state string, cause error) {
	j.mu.Lock()
	span, tctx, kind := j.span, j.tctx, j.status.Kind
	j.span = nil
	j.mu.Unlock()
	if span == nil {
		if tctx == nil {
			return
		}
		_, span = trace.Start(tctx, "job."+kind, trace.Root())
		span.SetAttr("kind", kind)
		span.SetAttr("job", j.id)
	}
	span.SetAttr("state", state)
	switch {
	case cause != nil:
		span.SetStatus(trace.StatusError, cause.Error())
	case state == StateDone:
		span.SetStatus(trace.StatusOK, "")
	}
	span.End()
}

// finalizeLocked stamps the terminal timing on the job and mirrors it
// to the status and the result payload (when one exists). It reports
// whether the job had started — the caller uses that to settle the
// right occupancy gauge. Called with j.mu held, terminal state set.
func (j *job) finalizeLocked() (started bool) {
	j.timing.FinishedAt = j.now()
	started = !j.timing.StartedAt.IsZero()
	if started {
		j.timing.RunSeconds = j.timing.FinishedAt.Sub(j.timing.StartedAt).Seconds()
	}
	t := j.timing.Snapshot()
	j.status.Timing = t
	if r, ok := j.result.(timed); ok {
		r.setTiming(t)
	}
	if r, ok := j.result.(traced); ok && j.status.TraceID != "" {
		r.setTraceID(j.status.TraceID)
	}
	return started
}

// countTerminal settles the metrics of a job reaching terminal state:
// the per-kind outcome counter, and whichever occupancy gauge (running
// or queued) the job leaves.
func (s *Service) countTerminal(kind, state string, started bool) {
	s.met.jobsTotal.With(kind, state).Inc()
	if started {
		s.met.jobsRunning.Dec()
	} else {
		s.met.jobsQueued.Dec()
	}
}

// publish is the simulator's block-barrier progress callback.
func (j *job) publish(p fsim.Progress) {
	j.met.simBlocks.Inc()
	j.publishBlock(ProgressEvent{
		Block:       p.Block,
		Blocks:      p.Blocks,
		VectorsUsed: p.VectorsUsed,
		Detected:    p.Detected,
		Active:      p.Active,
	})
}

// publishBlock records one block's progress on the status and
// queues it for every stream.
func (j *job) publishBlock(ev ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.BlocksDone = ev.Block + 1
	j.status.Blocks = ev.Blocks
	j.status.VectorsUsed = ev.VectorsUsed
	j.status.Detected = ev.Detected
	j.status.Active = ev.Active
	j.send(ev)
}

// publishGen pushes one per-target ATPG progress snapshot — the
// generation-phase analogue of publish, fired after every PODEM
// attempt.
func (j *job) publishGen(p tgen.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.TargetsDone = p.Done
	j.status.Targets = p.Targets
	j.status.Tests = p.Tests
	j.status.Detected = p.Detected
	j.status.Active = p.Active
	j.send(ProgressEvent{
		Target:   p.Done,
		Targets:  p.Targets,
		Tests:    p.Tests,
		Detected: p.Detected,
		Active:   p.Active,
	})
}

// send stamps ev with the job's identity and queues it for every
// stream; queueing never blocks. Called with j.mu held.
func (j *job) send(ev ProgressEvent) {
	ev.JobID, ev.Kind, ev.State = j.id, j.status.Kind, StateRunning
	for _, f := range j.followers {
		f.queue = append(f.queue, ev)
		f.wakeUp()
	}
}

func validatePatterns(spec PatternSpec) error {
	n := 0
	if spec.Random != nil {
		n++
		if spec.Random.N <= 0 {
			return fmt.Errorf("random pattern spec requires n > 0")
		}
	}
	if spec.Exhaustive {
		n++
	}
	if len(spec.Vectors) > 0 {
		n++
	}
	if n != 1 {
		return fmt.Errorf("pattern spec must set exactly one of random, exhaustive, vectors")
	}
	return nil
}

// MaxExhaustiveInputs is the most primary inputs a circuit may have
// for a job on exhaustive patterns: 2^20 vectors.
const MaxExhaustiveInputs = 20

// buildPatterns materializes the vector set of a spec for a circuit
// with the given input count and returns a deterministic content key
// for the good-machine cache.
func buildPatterns(inputs int, spec PatternSpec) (*logic.PatternSet, string, error) {
	switch {
	case spec.Random != nil:
		ps := logic.RandomPatterns(inputs, spec.Random.N, prng.New(spec.Random.Seed))
		return ps, fmt.Sprintf("r:%d:%d", spec.Random.N, spec.Random.Seed), nil
	case spec.Exhaustive:
		if inputs > MaxExhaustiveInputs {
			return nil, "", fmt.Errorf("exhaustive patterns limited to %d inputs, circuit has %d", MaxExhaustiveInputs, inputs)
		}
		return logic.ExhaustivePatterns(inputs), "x", nil
	case len(spec.Vectors) > 0:
		ps := logic.NewPatternSet(inputs)
		h := fnv.New64a()
		for i, s := range spec.Vectors {
			if len(s) != inputs {
				return nil, "", fmt.Errorf("vector %d has %d bits, circuit has %d inputs", i, len(s), inputs)
			}
			v := make(logic.Vector, inputs)
			for k := 0; k < len(s); k++ {
				switch s[k] {
				case '0':
				case '1':
					v[k] = 1
				default:
					return nil, "", fmt.Errorf("vector %d: invalid character %q", i, s[k])
				}
			}
			ps.Append(v)
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
		return ps, fmt.Sprintf("v:%016x", h.Sum64()), nil
	}
	return nil, "", fmt.Errorf("empty pattern spec")
}
