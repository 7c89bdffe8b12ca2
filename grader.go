package adifo

import (
	"context"
	"net/http"

	"github.com/eda-go/adifo/internal/cluster"
	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/service"
	"github.com/eda-go/adifo/internal/service/client"
)

// Version is the adifo stack's build version, the value `adifod
// -version` prints and the adifo_build_info metric carries.
const Version = obs.Version

// Wire types of the v1 job API, shared verbatim between the in-process
// engine, the adifod HTTP server and the remote client, so a result is
// structurally identical wherever the grading ran.
type (
	// JobSpec is a fault-grading request: a circuit (named or inline
	// .bench text), a pattern spec, and a dropping policy. Mode is
	// required — the wire contract has no silent default.
	JobSpec = service.JobSpec
	// PatternSpec selects the vector set: exactly one of Random,
	// Exhaustive and Vectors.
	PatternSpec = service.PatternSpec
	// RandomSpec requests N seeded random vectors, reproducible across
	// runs and hosts.
	RandomSpec = service.RandomSpec
	// JobStatus is the pollable view of a job.
	JobStatus = service.JobStatus
	// JobResult is the full grading outcome of a finished job.
	JobResult = service.JobResult
	// FaultResult is the per-fault slice of a JobResult.
	FaultResult = service.FaultResult
	// ProgressEvent is one entry of a job's streaming progress feed.
	ProgressEvent = service.ProgressEvent
	// GraderStats is the service-level counter snapshot, including the
	// registry cache hit/miss counters.
	GraderStats = service.Stats
	// GraderConfig sizes a local grader; zero values select sensible
	// defaults.
	GraderConfig = service.Config
	// APIError is the typed error of the v1 wire contract
	// ({"error": {"code": ..., "message": ...}}); RemoteGrader calls
	// surface it via errors.As.
	APIError = service.APIError
	// FaultShard is the wire's optional shard selector: a job carrying
	// it grades only shard Index of Count of the collapsed fault
	// universe, against the full pattern set. ClusterGrader assigns
	// these automatically; set it by hand only to drive your own
	// fan-out.
	FaultShard = service.FaultShard
	// ClusterOptions configures a ClusterGrader; zero values select
	// sensible defaults.
	ClusterOptions = cluster.Options
	// ClusterShardStatus is the per-shard placement state of a cluster
	// job (backend URL, remote sub-job id, retries).
	ClusterShardStatus = cluster.ShardStatus
	// JobTiming is the per-job wall-clock record on statuses and
	// results: submit/start/finish timestamps, queue wait, and the
	// per-phase duration map (registry_build, simulate, order,
	// generate, merge).
	JobTiming = service.Timing
)

// Phase names of JobTiming.Phases: each kind records the pipeline
// stages it actually ran.
const (
	PhaseRegistryBuild = service.PhaseRegistryBuild
	PhaseSimulate      = service.PhaseSimulate
	PhaseOrder         = service.PhaseOrder
	PhaseGenerate      = service.PhaseGenerate
	PhaseMerge         = service.PhaseMerge
)

// Job states. Queued and running jobs may still change state; done,
// failed and cancelled are terminal.
const (
	JobQueued    = service.StateQueued
	JobRunning   = service.StateRunning
	JobDone      = service.StateDone
	JobFailed    = service.StateFailed
	JobCancelled = service.StateCancelled
)

// Errors returned by Grader methods (LocalGrader returns them
// directly; RemoteGrader returns *APIError with the matching code).
var (
	ErrJobNotFound  = service.ErrNotFound
	ErrJobNotDone   = service.ErrNotDone
	ErrJobCancelled = service.ErrCancelled
	ErrJobFinished  = service.ErrFinished
	// ErrGraderDraining is returned by Submit while the engine is
	// shutting down gracefully (LocalGrader.Drain, or an adifod server
	// that received SIGINT/SIGTERM).
	ErrGraderDraining = service.ErrDraining
	// ErrGraderOverloaded is returned by Submit when admission control
	// rejects the job: the global queued-job bound
	// (GraderConfig.MaxQueuedJobs) or the submitting tenant's own bound
	// (GraderConfig.TenantLimits) is reached. Back off and resubmit —
	// with an idempotency key the retry is safe by construction.
	ErrGraderOverloaded = service.ErrOverloaded
)

// TenantLimit configures one tenant's scheduling weight and queue
// bound in GraderConfig.TenantLimits.
type TenantLimit = service.TenantLimit

// Grader is the fault-grading engine behind one interface: submit a
// job, poll or stream it, fetch the result, cancel it. NewLocalGrader
// runs jobs in-process; NewRemoteGrader talks to a running adifod
// server. Programs written against Grader switch between embedded and
// remote grading by swapping a constructor.
type Grader interface {
	// Submit validates spec, enqueues a job and returns its id; the
	// job runs asynchronously on a bounded pool.
	Submit(ctx context.Context, spec JobSpec) (string, error)
	// Status returns the current status of a job.
	Status(ctx context.Context, id string) (JobStatus, error)
	// Result returns the grading outcome of a finished job
	// (ErrJobNotDone while it runs, ErrJobCancelled after a cancel,
	// the job's failure for failed jobs).
	Result(ctx context.Context, id string) (*JobResult, error)
	// Cancel aborts a job: a queued job transitions to cancelled
	// immediately, a running one at its next 64-pattern block barrier.
	// Idempotent on cancelled jobs; ErrJobFinished after completion.
	Cancel(ctx context.Context, id string) (JobStatus, error)
	// Stream delivers per-block progress events until the job reaches
	// a terminal state and returns the final status.
	Stream(ctx context.Context, id string, fn func(ProgressEvent)) (JobStatus, error)
	// Stats returns the engine's counters.
	Stats(ctx context.Context) (GraderStats, error)
	// Close releases the grader; a local grader waits for submitted
	// jobs to finish first.
	Close() error
}

// Interface conformance.
var (
	_ Grader = (*LocalGrader)(nil)
	_ Grader = (*RemoteGrader)(nil)
	_ Grader = (*ClusterGrader)(nil)
)

// engine is the half of the Grader interface that LocalGrader and
// ClusterGrader share: both keep their jobs on a service engine, so
// status, result, cancel and stream queries are the engine's.
type engine struct {
	svc *service.Service
}

// Status implements Grader.
func (e engine) Status(_ context.Context, id string) (JobStatus, error) {
	st, ok := e.svc.Status(id)
	if !ok {
		return JobStatus{}, ErrJobNotFound
	}
	return st, nil
}

// Result implements Grader.
func (e engine) Result(_ context.Context, id string) (*JobResult, error) {
	return e.svc.Result(id)
}

// Cancel implements Grader.
func (e engine) Cancel(_ context.Context, id string) (JobStatus, error) {
	return e.svc.Cancel(id)
}

// Stream implements Grader: fn receives every progress event of the
// job, in order, until the job reaches a terminal state; Stream then
// returns the final status. ctx aborts the subscription (not the job —
// use Cancel for that).
func (e engine) Stream(ctx context.Context, id string, fn func(ProgressEvent)) (JobStatus, error) {
	return e.svc.Stream(ctx, id, fn)
}

// MetricsHandler returns the engine's Prometheus text exposition
// endpoint on its own, for embedders that mount metrics on a separate
// (internal) listener.
func (e engine) MetricsHandler() http.Handler { return e.svc.Metrics().Handler() }

// TracesHandler returns the engine's trace flight recorder, mountable
// at /debug/traces: a JSON list of recently retained traces (plus the
// slowest jobs per kind) and a per-trace span tree at
// /debug/traces/{trace_id}. adifod mounts it on the -debug-addr
// listener.
func (e engine) TracesHandler() http.Handler { return e.svc.Traces().Handler() }

// LocalGrader runs grading jobs in-process: a registry caches parsed
// circuits, collapsed fault lists and good-machine simulations, and a
// bounded pool runs jobs through the sharded simulator. It is the
// engine adifod serves; Handler exposes it over HTTP, and
// MetricsHandler's exposition is also served there at GET /metrics.
type LocalGrader struct {
	engine
}

// NewLocalGrader returns an in-process grading engine. It panics when
// the configured journal directory cannot be opened or replayed; use
// OpenLocalGrader to handle that as an error.
func NewLocalGrader(cfg GraderConfig) *LocalGrader {
	return &LocalGrader{engine{service.New(cfg)}}
}

// OpenLocalGrader returns an in-process grading engine, surfacing
// journal open/replay failures as errors. With
// GraderConfig.JournalDir set, every accepted job is made durable in
// a write-ahead journal before Submit returns, and construction
// replays the journal: finished jobs come back queryable with
// byte-identical results, jobs that were queued or running when the
// process died re-enqueue and rerun. Recovery completes before
// OpenLocalGrader returns, so a caller that wires Handler to a
// listener afterwards never serves a partially recovered view.
func OpenLocalGrader(cfg GraderConfig) (*LocalGrader, error) {
	svc, err := service.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &LocalGrader{engine{svc}}, nil
}

// Handler returns the engine's v1 HTTP+JSON API, the surface cmd/adifod
// listens on and RemoteGrader talks to.
func (g *LocalGrader) Handler() http.Handler { return g.svc.Handler() }

// Submit implements Grader. Graders run grade jobs; specs of other
// kinds are rejected here rather than failing later at Result (use
// NewRemoteGenerator for atpg, NewRemoteOrderer for adi_order — the
// engine behind Handler serves all kinds).
func (g *LocalGrader) Submit(_ context.Context, spec JobSpec) (string, error) {
	if err := checkKind(&spec, KindGrade); err != nil {
		return "", err
	}
	return g.svc.Submit(spec)
}

// Stats implements Grader.
func (g *LocalGrader) Stats(_ context.Context) (GraderStats, error) {
	return g.svc.Stats(), nil
}

// Close implements Grader: it waits for all submitted jobs to finish
// (cancel them first for a fast shutdown), then closes the journal of
// a grader opened with a JournalDir. A Submit after Close still runs
// on a grader without a journal, and fails on one with a journal,
// which can no longer make the job durable.
func (g *LocalGrader) Close() error {
	g.svc.Close()
	return nil
}

// Drain shuts the engine down gracefully: from the moment it is
// called Submit rejects new jobs with an ErrGraderDraining error,
// queued jobs are cancelled immediately, running jobs are cancelled at
// their next 64-pattern block barrier (streams end with the cancelled
// status), and Drain returns once every job goroutine has finished.
// adifod calls this on SIGINT/SIGTERM before shutting its HTTP server
// down.
func (g *LocalGrader) Drain() { g.svc.Drain() }

// remote is the half that RemoteGrader, RemoteGenerator and
// RemoteOrderer share: each talks to one adifod server through a
// client, and the calls that do not depend on the job's kind go
// straight to it.
type remote struct {
	cl *client.Client
}

// Status polls one job.
func (r *remote) Status(ctx context.Context, id string) (JobStatus, error) {
	return r.cl.Status(ctx, id)
}

// Cancel aborts a job: a queued job immediately, a running one at its
// next barrier (a 64-pattern simulation block, or one ATPG target).
func (r *remote) Cancel(ctx context.Context, id string) (JobStatus, error) {
	return r.cl.Cancel(ctx, id)
}

// Stream delivers progress events until the job reaches a terminal
// state and returns the final status.
func (r *remote) Stream(ctx context.Context, id string, fn func(ProgressEvent)) (JobStatus, error) {
	return r.cl.Stream(ctx, id, fn)
}

// Stats returns the server's counters.
func (r *remote) Stats(ctx context.Context) (GraderStats, error) {
	return r.cl.Stats(ctx)
}

// Close releases nothing: a remote front end holds no resources.
func (r *remote) Close() error { return nil }

// RemoteGrader grades on a running adifod server over the v1 HTTP+JSON
// API. Non-2xx responses surface as *APIError.
type RemoteGrader struct {
	remote
}

// NewRemoteGrader returns a grader for the adifod server at base (e.g.
// "http://localhost:8417"). httpClient may be nil for
// http.DefaultClient.
func NewRemoteGrader(base string, httpClient *http.Client) *RemoteGrader {
	return &RemoteGrader{remote{client.New(base, httpClient)}}
}

// Submit implements Grader. Like LocalGrader, it submits grade jobs
// only; use NewRemoteGenerator / NewRemoteOrderer for the other
// kinds.
func (g *RemoteGrader) Submit(ctx context.Context, spec JobSpec) (string, error) {
	if err := checkKind(&spec, KindGrade); err != nil {
		return "", err
	}
	return g.cl.Submit(ctx, spec)
}

// Result implements Grader.
func (g *RemoteGrader) Result(ctx context.Context, id string) (*JobResult, error) {
	return g.cl.Result(ctx, id)
}

// ClusterGrader fans every grading job out across multiple adifod
// backends: the collapsed fault universe is partitioned into many more
// deterministic index-range shards than backends (ShardsPerBackend per
// healthy backend), every backend takes as many shards as its
// in-flight window holds (by default all of its share at once), and
// the streamed progress and final results are merged into a single
// JobResult that is bit-identical to an unsharded single-node run. A
// backend that dies mid-job has its shards requeued and retried on
// survivors; a shard stuck behind a straggler is speculatively
// duplicated on a backend with room (first terminal result wins —
// determinism makes duplicates safe), which is the only way work moves
// to a faster backend. Health is probed via /v1/stats and flapping
// backends are excluded. Cancel fans out to every sub-job.
//
// Every cluster job is a job of the coordinator's own engine, so
// Status, Result, Cancel and Stream behave as LocalGrader's do: the
// stream carries one merged event per block, in order, once every
// shard has passed it. MetricsHandler adds the coordinator's
// placement, retry and merge series to the engine's, and a
// TracesHandler trace covers the whole fan-out: the job.grade root, one
// span per shard attempt (reruns after a backend death included) and
// the merge.
type ClusterGrader struct {
	engine
	co *cluster.Coordinator
}

// NewClusterGrader returns a grader that shards every job across the
// adifod servers at the given base URLs (e.g. "http://host:8417"). At
// least one URL is required; with exactly one, the cluster degrades to
// a remote grader with retry.
func NewClusterGrader(urls []string, opts ClusterOptions) (*ClusterGrader, error) {
	co, err := cluster.New(urls, opts)
	if err != nil {
		return nil, err
	}
	return &ClusterGrader{engine{co.Service()}, co}, nil
}

// Submit implements Grader. Spec errors, including the sharding
// refusals (fault_shard, stop_at_coverage, a kind other than grade),
// and a cluster with no backend answering its health probe fail the
// call; placement then starts at once, and a spec that only a backend
// refuses fails the job. A repeated idempotency key answers with the
// first job's id, per tenant, as on any engine.
func (g *ClusterGrader) Submit(ctx context.Context, spec JobSpec) (string, error) {
	return g.svc.SubmitContext(ctx, spec)
}

// Stats implements Grader by summing the counters of every reachable
// backend.
func (g *ClusterGrader) Stats(ctx context.Context) (GraderStats, error) {
	return g.co.Stats(ctx)
}

// Shards exposes the per-shard placement of a cluster job (which
// backend holds which fault range, how often it was retried).
func (g *ClusterGrader) Shards(id string) ([]ClusterShardStatus, error) {
	return g.co.Shards(id)
}

// Close implements Grader: it waits for the orchestration of every
// submitted cluster job to finish.
func (g *ClusterGrader) Close() error { return g.co.Close() }
