// Package cluster fans one fault-grading job out across multiple
// adifod backends. The coordinator partitions the collapsed fault
// universe into deterministic index-range shards (service.ShardRange),
// submits sub-jobs with the wire's fault_shard selector set, merges the
// streamed per-block progress and the final per-shard results into a
// single JobResult, and retries the shard of a dead backend on a
// surviving one.
//
// Placement is a work queue, not a static assignment: the coordinator
// cuts ShardsPerBackend shards per healthy backend — many more shards
// than backends — and each backend pulls the next queued shard as its
// in-flight window (bounded by MaxInFlightPerBackend, scaled by the
// capacity each backend reports on /v1/stats) opens up. Fast backends
// therefore finish more shards; a slow backend bounds only its own
// tail, not the job. When the queue runs dry an idle backend first
// steals a shard that is still sitting unstarted in a backlogged
// peer's own queue, then speculatively duplicates the least-progressed
// running shard — the first attempt to reach a terminal result wins
// and the loser is cancelled. A background re-probe loop re-admits
// backends that were unhealthy (or flapping) at submit time, so
// membership is dynamic over a job's lifetime.
//
// The merge is bit-identical to an unsharded single-node run because
// dropping decisions are per-fault: a fault drops when its own
// detection count crosses the mode threshold, so disjoint fault shards
// have no cross-fault control dependence. Each backend grades its
// shard against the full (replicated) pattern set; per-fault counters
// concatenate, per-vector ndet counters sum, and the merged
// vectors-used is the maximum over shards — exactly the block at which
// a single run's global active list would have emptied. Patterns are
// replicated rather than split because dropping *does* depend on
// earlier vectors: pattern shards would have cross-shard control
// dependence, fault shards do not. Determinism is also what makes
// duplicate attempts safe: a speculative copy reproduces the original
// byte for byte, so whichever attempt finishes first yields the same
// merged job.
//
// Backend health is probed via /v1/stats; a backend that keeps failing
// (flapping) is excluded from placement once its consecutive failure
// count reaches Options.MaxBackendFailures, until a probe or sub-job
// succeeds on it again.
//
// Every cluster job is a job of the coordinator's own service engine
// (Coordinator.Service): the engine owns ids, retention, idempotency,
// cancellation, the trace root, phase timing and the progress stream,
// and the fan-out is that engine's grade body (a service.GradeFunc).
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/obs/trace"
	"github.com/eda-go/adifo/internal/service"
	"github.com/eda-go/adifo/internal/service/client"
)

// Options configures a Coordinator; zero values select sensible
// defaults.
type Options struct {
	// HTTPClient is used for every backend call. Nil selects a client
	// of the coordinator's own, whose transport keeps
	// MaxInFlightPerBackend idle connections per backend; Close closes
	// them.
	HTTPClient *http.Client
	// ProbeTimeout bounds one /v1/stats health probe (default 2s).
	ProbeTimeout time.Duration
	// MaxShardRetries is how many times one shard may be resubmitted
	// after backend failures before the cluster job fails (default 3).
	MaxShardRetries int
	// MaxBackendFailures is the consecutive-failure count at which a
	// backend is considered flapping and excluded from placement until
	// a probe or sub-job completes on it again (default 3).
	MaxBackendFailures int
	// MaxRetainedJobs bounds how many finished cluster jobs (and their
	// merged results) are kept for status/result queries: it is the
	// retention bound of the coordinator's engine, which evicts the
	// oldest finished jobs first and running jobs never (default 1024).
	MaxRetainedJobs int
	// ShardsPerBackend is the work-queue over-partitioning factor K: a
	// job over N healthy backends is cut into K×N shards (default 4).
	// More shards mean finer-grained load balancing — a straggler
	// strands at most 1/(K·N) of the fault universe per in-flight slot
	// — at the cost of more sub-jobs and more merge tracks.
	ShardsPerBackend int
	// MaxInFlightPerBackend caps how many sub-jobs of one cluster job
	// run concurrently on a single backend (default: ShardsPerBackend,
	// so the whole queue streams at once when every backend is
	// healthy and the queue only backs up under failures or skew).
	// Backends reporting fewer workers than their largest peer get a
	// proportionally smaller window (see capacity).
	MaxInFlightPerBackend int
	// ReprobeInterval is the period of the background membership sweep
	// that re-probes every backend, records its reported capacity, and
	// re-admits recovered backends into running jobs (default 3s).
	ReprobeInterval time.Duration
	// StragglerAfter is how old a shard's sole attempt must be before
	// an idle backend (with an empty queue) may steal it (no streamed
	// progress yet — the sub-job is stuck in its backend's queue) or
	// speculatively duplicate it (progressing, but slowly). The age
	// gate keeps healthy fast jobs at exactly one attempt per shard:
	// "no progress" alone also describes a placement that is a few
	// milliseconds old (default 2s).
	StragglerAfter time.Duration
	// Logger receives placement and retry diagnostics as structured
	// records with "backend", "shard" and "job" fields. Nil selects the
	// stack default (Info-level text on stderr); tests pass obs.Nop().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.MaxShardRetries <= 0 {
		o.MaxShardRetries = 3
	}
	if o.MaxBackendFailures <= 0 {
		o.MaxBackendFailures = 3
	}
	if o.ShardsPerBackend <= 0 {
		o.ShardsPerBackend = 4
	}
	if o.MaxInFlightPerBackend <= 0 {
		o.MaxInFlightPerBackend = o.ShardsPerBackend
	}
	if o.ReprobeInterval <= 0 {
		o.ReprobeInterval = 3 * time.Second
	}
	if o.StragglerAfter <= 0 {
		o.StragglerAfter = 2 * time.Second
	}
	o.Logger = obs.Or(o.Logger)
	return o
}

// backend is one adifod server plus its health bookkeeping. failures
// counts consecutive transport-level failures; any completed sub-job
// or successful probe resets it. workers/load are the capacity hints
// from the backend's most recent /v1/stats answer.
type backend struct {
	url string
	cl  *client.Client

	mu       sync.Mutex
	failures int
	alive    bool
	workers  int
	load     int // queued + running jobs at last probe
}

func (b *backend) markFailure() {
	b.mu.Lock()
	b.failures++
	b.mu.Unlock()
}

func (b *backend) markOK() {
	b.mu.Lock()
	b.failures = 0
	b.mu.Unlock()
}

// markProbe records a probe outcome: success resets the failure count
// (a backend that answers its stats endpoint is admittable again, even
// if it was flapping) and reports whether this probe observed a
// dead-to-alive transition.
func (b *backend) markProbe(ok bool) (recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		recovered = !b.alive
		b.alive = true
		b.failures = 0
		return recovered
	}
	b.alive = false
	b.failures++
	return false
}

// setHints records the backend's self-reported capacity.
func (b *backend) setHints(workers, load int) {
	b.mu.Lock()
	b.workers, b.load = workers, load
	b.mu.Unlock()
}

func (b *backend) hints() (workers, load int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.workers, b.load
}

// flapping reports whether the backend has hit the consecutive-failure
// threshold.
func (b *backend) flapping(max int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures >= max
}

// Coordinator fans grading jobs out across a fixed set of adifod
// backends. Its jobs live on its engine (Service), so they answer
// status, result, cancel and stream queries as a local engine's do.
type Coordinator struct {
	opts     Options
	backends []*backend
	logger   *slog.Logger
	svc      *service.Service

	// met instruments the fan-out on the engine's metric registry; now
	// is the clock.
	met *clusterMetrics
	now func() time.Time

	// nonce distinguishes this coordinator incarnation in the
	// idempotency keys it mints for shard sub-jobs: a restarted
	// coordinator re-placing the "same" shard must not collide with a
	// sub-job the previous incarnation left on a journal-backed backend.
	nonce string

	// ctx lives until Close. It ends the re-probe loop and the
	// pacemakers, and it bounds remote cancels and reclaims: those
	// wait as long as a loaded backend takes to answer, since a
	// sub-job they give up on keeps running.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	// ownHTTP is the client New built when Options.HTTPClient was nil;
	// Close closes its idle connections.
	ownHTTP *http.Client
}

// New returns a coordinator over the given backend base URLs (e.g.
// "http://host:8417"). At least one URL is required.
func New(urls []string, opts Options) (*Coordinator, error) {
	if len(urls) == 0 {
		return nil, errors.New("cluster: at least one backend URL is required")
	}
	opts = opts.withDefaults()
	var ownHTTP *http.Client
	if opts.HTTPClient == nil {
		// One job holds up to MaxInFlightPerBackend calls on each
		// backend, and the default transport keeps only 2 idle
		// connections per host: every call past those would dial again.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = opts.MaxInFlightPerBackend
		t.MaxIdleConns = max(t.MaxIdleConns, len(urls)*t.MaxIdleConnsPerHost)
		ownHTTP = &http.Client{Transport: t}
		opts.HTTPClient = ownHTTP
	}
	co := &Coordinator{
		opts:    opts,
		logger:  opts.Logger,
		now:     time.Now,
		nonce:   newNonce(),
		ownHTTP: ownHTTP,
	}
	seen := make(map[string]bool)
	for _, u := range urls {
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate backend URL %s", u)
		}
		seen[u] = true
		co.backends = append(co.backends, &backend{url: u, cl: client.New(u, opts.HTTPClient)})
	}
	svc, err := service.OpenWithGrade(service.Config{
		// A cluster job's body waits on its backends rather than
		// computing, so the pool starts every job at once: a job queued
		// behind others would leave idle the backends it could use. The
		// worker bound is each backend's own, checked when it accepts a
		// shard.
		MaxConcurrentJobs: math.MaxInt32,
		SimWorkers:        math.MaxInt32,
		MaxRetainedJobs:   opts.MaxRetainedJobs,
		Kinds:             []string{service.KindGrade},
		Logger:            opts.Logger,
	}, co.prepare)
	if err != nil {
		return nil, err
	}
	co.svc = svc
	co.ctx, co.stop = context.WithCancel(context.Background())
	co.met = newClusterMetrics(svc.Metrics())
	for _, b := range co.backends {
		// Pre-create the per-backend series so a scrape shows the full
		// backend set at zero before any probe or failure.
		co.met.probeSeconds.With(b.url)
		co.met.exclusions.With(b.url)
	}
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		co.reprobeLoop()
	}()
	return co, nil
}

// Service is the coordinator's engine: submit cluster jobs to it and
// query, cancel and stream them there. Its metric registry carries the
// cluster's instruments, and its trace recorder the fan-out traces.
func (co *Coordinator) Service() *service.Service { return co.svc }

// newNonce mints the coordinator incarnation nonce for shard
// idempotency keys.
func newNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0"
	}
	return hex.EncodeToString(b[:])
}

// shardKey is the idempotency key of one shard placement attempt.
// Deterministic within an incarnation: if the coordinator (or the
// client under it) repeats the same placement after a lost response,
// the backend dedupes the repeat into the already-accepted sub-job —
// exactly-once per backend. The attempt ordinal is part of the key
// because every re-placement AND every speculative duplicate is a new
// logical attempt: keyed identically, a backend would dedupe the
// speculative copy into the original sub-job and speculation would
// silently collapse into a second subscription on the same straggler.
func (co *Coordinator) shardKey(jobID string, index, count, attempt int) string {
	return fmt.Sprintf("c-%s-%s-s%d.%d-a%d", co.nonce, jobID, index, count, attempt)
}

// attempt is one placement of one shard on one backend. A shard has at
// most two live attempts: its primary and a speculative duplicate (or
// the superseded victim of a steal, draining away).
type attempt struct {
	backend     *backend
	key         string
	seq         int  // attempt ordinal within the shard, keys the sub-job
	retry       int  // sh.retries at creation; the span's retry attribute
	speculative bool // duplicate of a running attempt
	stolen      bool // claimed away from a backlogged backend
	born        time.Time

	// ctx cancels this attempt's outbound calls; cancel is invoked when
	// the attempt loses (superseded) or the attempt goroutine returns.
	ctx    context.Context
	cancel context.CancelFunc

	remoteID string // sub-job id on the backend; guarded by shard.mu

	// progress counts streamed events — the steal heuristic's "has this
	// sub-job started at all" signal.
	progress atomic.Int64
	// superseded marks a lost race: the shard finished (or moved)
	// elsewhere and this attempt's death is bookkeeping, not a loss.
	superseded atomic.Bool
}

// shard is one fault-range sub-job of a cluster job.
type shard struct {
	index, count int

	mu         sync.Mutex
	state      string // queued/running/done/failed/cancelled from the cluster's view
	attempts   []*attempt
	attemptSeq int
	retries    int
	lastFailed string // URL of the backend that most recently lost this shard
	// backend/remoteID are the latest placement while running and the
	// winning attempt's once done — diagnostics via Shards.
	backend  *backend
	remoteID string
	result   *service.JobResult
	err      error
}

// ShardStatus is the observable placement state of one shard, exposed
// for diagnostics and tests.
type ShardStatus struct {
	Index    int    `json:"index"`
	Count    int    `json:"count"`
	Backend  string `json:"backend"`
	RemoteID string `json:"remote_id"`
	State    string `json:"state"`
	Retries  int    `json:"retries"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
}

// cjob is the fan-out of one cluster job: the body its engine job
// runs.
type cjob struct {
	co      *Coordinator
	spec    service.JobSpec
	healthy []*backend // the backends that answered the submit's probe
	shards  []*shard
	merge   *merger

	// id is the engine job's id and run its handle; tctx carries the
	// job's root span (plus the engine's recorder) without the job's
	// cancellation: shard-attempt spans start under it, and outbound
	// backend calls inject its traceparent. All three are set before
	// the dispatch loops start and never reassigned.
	id   string
	run  *service.Run
	tctx context.Context

	// pubMu serializes merge-and-publish pairs so merged events reach
	// subscribers in block order even when shard streams race.
	pubMu sync.Mutex

	// aborted marks a cancel or a shard failure fan-out. Attempt triage
	// consults it so the abort's own remote cancels are not mistaken
	// for backend drains (and pointlessly retried).
	aborted atomic.Bool

	// smu guards the work-queue state; cond wakes dispatch loops when
	// the queue, in-flight windows, or shard states change.
	smu         sync.Mutex
	cond        *sync.Cond
	queue       []*shard       // shards awaiting (re)placement
	inflight    map[string]int // live attempts per backend URL
	runners     map[string]bool
	runnerCount int // live dispatch loops
	holders     int // live goroutines under runnersWg; 0 is terminal
	remaining   int // shards not yet terminal
	closed      bool
	runnersWg   sync.WaitGroup
}

// work is one claimed placement: a shard plus the attempt minted for
// the claiming backend.
type work struct {
	sh  *shard
	att *attempt
}

// probe checks one backend's liveness with the configured timeout,
// records the round-trip in the per-backend probe histogram (a dead
// backend observes the timeout it cost the sweep), and on success
// refreshes the backend's capacity hints.
func (co *Coordinator) probe(ctx context.Context, b *backend) error {
	pctx, cancel := context.WithTimeout(ctx, co.opts.ProbeTimeout)
	defer cancel()
	start := co.now()
	st, err := b.cl.Stats(pctx)
	co.met.probeSeconds.With(b.url).Observe(co.now().Sub(start).Seconds())
	if err == nil {
		b.setHints(st.Workers, st.JobsQueued+st.JobsRunning)
	}
	return err
}

// exclude counts and logs one placement decision that passed over a
// flapping backend.
func (co *Coordinator) exclude(b *backend) {
	co.met.exclusions.With(b.url).Inc()
	co.logger.Debug("backend excluded from placement (flapping)", "backend", b.url)
}

// healthyBackends probes every backend concurrently (one ProbeTimeout
// bounds the whole sweep, not each dead backend in turn) and returns
// the live, non-flapping ones in configuration order.
func (co *Coordinator) healthyBackends(ctx context.Context) []*backend {
	ok := make([]bool, len(co.backends))
	var wg sync.WaitGroup
	for i, b := range co.backends {
		if b.flapping(co.opts.MaxBackendFailures) {
			co.exclude(b)
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			if err := co.probe(ctx, b); err != nil {
				b.markFailure()
				co.logger.Warn("backend unhealthy", "backend", b.url, "err", err)
				return
			}
			ok[i] = true
		}(i, b)
	}
	wg.Wait()
	var out []*backend
	for i, b := range co.backends {
		if ok[i] {
			out = append(out, b)
		}
	}
	return out
}

// reprobeLoop is the dynamic-membership sweep: it periodically probes
// every backend, refreshing capacity hints and re-admitting backends
// that were dead (or flapping) into the dispatch of running jobs.
func (co *Coordinator) reprobeLoop() {
	t := time.NewTicker(co.opts.ReprobeInterval)
	defer t.Stop()
	for {
		select {
		case <-co.ctx.Done():
			return
		case <-t.C:
			co.reprobe()
		}
	}
}

func (co *Coordinator) reprobe() {
	var wg sync.WaitGroup
	for _, b := range co.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			if err := co.probe(co.ctx, b); err != nil {
				b.markProbe(false)
				return
			}
			if b.markProbe(true) {
				co.logger.Info("backend recovered, readmitting", "backend", b.url)
			}
			co.admit(b)
		}(b)
	}
	wg.Wait()
}

// admit attaches a dispatch loop for b to every running job that lacks
// one — the work-queue half of dynamic membership. Idempotent:
// startRunner refuses jobs that are finished, not yet started or
// already served by b.
func (co *Coordinator) admit(b *backend) {
	for _, st := range co.svc.Jobs() {
		if j := co.job(st.ID); j != nil {
			co.startRunner(j, b)
		}
	}
}

// capacity is the in-flight window the coordinator keeps open on b:
// the configured cap, scaled by the workers b reported relative to the
// best-provisioned peer, and shaved when b already carries a standing
// backlog of its own. Backends with no hints yet (never probed, or an
// older server not reporting workers) get the full cap.
func (co *Coordinator) capacity(b *backend) int {
	cap := co.opts.MaxInFlightPerBackend
	w, load := b.hints()
	if w <= 0 {
		return cap
	}
	maxW := w
	for _, x := range co.backends {
		if xw, _ := x.hints(); xw > maxW {
			maxW = xw
		}
	}
	c := (cap*w + maxW - 1) / maxW
	if load > w && c > 1 {
		c--
	}
	if c < 1 {
		c = 1
	}
	return c
}

// prepare is the engine's GradeFunc, called by Submit once the spec
// has validated. It refuses what fault sharding cannot run, probes the
// backends, and cuts the job into ShardsPerBackend shards per healthy
// one; Run places them.
func (co *Coordinator) prepare(ctx context.Context, spec service.JobSpec) (service.Body, error) {
	if spec.FaultShard != nil {
		return nil, errors.New("cluster: spec must not carry fault_shard; the coordinator assigns shards")
	}
	if spec.StopAtCoverage > 0 {
		return nil, errors.New("cluster: stop_at_coverage is not supported on sharded jobs (the cut-off depends on global coverage)")
	}
	healthy := co.healthyBackends(ctx)
	if len(healthy) == 0 {
		return nil, errors.New("cluster: no healthy backends")
	}
	count := co.opts.ShardsPerBackend * len(healthy)
	j := &cjob{
		co:        co,
		spec:      spec,
		healthy:   healthy,
		merge:     newMerger(count),
		inflight:  make(map[string]int),
		runners:   make(map[string]bool),
		remaining: count,
	}
	j.cond = sync.NewCond(&j.smu)
	for i := 0; i < count; i++ {
		j.shards = append(j.shards, &shard{index: i, count: count, state: service.StateQueued})
	}
	j.queue = append([]*shard(nil), j.shards...)
	return j, nil
}

// Run is the body of a cluster job (service.Body): it starts a
// dispatch loop per healthy backend, waits until every loop and
// attempt has returned, and merges the shard results. A cancel of ctx
// aborts the fan-out.
func (j *cjob) Run(ctx context.Context, r *service.Run) (*service.JobResult, error) {
	co := j.co
	span := trace.SpanFromContext(ctx)
	span.SetAttrInt("shards", len(j.shards))
	span.SetAttrInt("backends", len(j.healthy))
	// The body holds the job open (holders > 0) while it starts the
	// dispatch loops, so startRunner admits them.
	j.smu.Lock()
	j.id, j.run, j.tctx = r.ID, r, context.WithoutCancel(ctx)
	j.holders++
	j.runnersWg.Add(1)
	j.smu.Unlock()
	stop := context.AfterFunc(ctx, func() { co.abortJob(j) })
	defer stop()
	for _, b := range j.healthy {
		co.startRunner(j, b)
	}
	j.smu.Lock()
	j.holders--
	j.smu.Unlock()
	j.runnersWg.Done()
	j.cond.Broadcast()

	// The pacemaker: steal and speculation eligibility turn true with
	// the mere passage of time (an attempt ages past StragglerAfter
	// with no event landing — the very situation where no broadcast is
	// coming), so idle dispatch loops parked in cond.Wait need a
	// periodic nudge to re-scan for work.
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		period := co.opts.StragglerAfter / 2
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				j.smu.Lock()
				closed := j.closed
				j.cond.Broadcast()
				j.smu.Unlock()
				if closed {
					return
				}
			case <-co.ctx.Done():
				return
			}
		}
	}()

	// Once every dispatch loop and attempt has returned, settle
	// whatever is left (shards stranded with no backend to run them).
	j.runnersWg.Wait()
	j.smu.Lock()
	j.closed = true
	orphans := j.queue
	j.queue = nil
	j.smu.Unlock()
	for _, sh := range append(orphans, j.shards...) {
		if j.aborted.Load() {
			co.settleShard(j, sh, service.StateCancelled, nil)
		} else {
			co.settleShard(j, sh, service.StateFailed, errors.New("no healthy backend available"))
		}
	}
	return co.finalize(ctx, j)
}

// newAttemptLocked mints the next attempt of sh on b. Caller holds
// sh.mu.
func (co *Coordinator) newAttemptLocked(j *cjob, sh *shard, b *backend, speculative, stolen bool) *attempt {
	ctx, cancel := context.WithCancel(j.tctx)
	att := &attempt{
		backend:     b,
		key:         co.shardKey(j.id, sh.index, sh.count, sh.attemptSeq),
		seq:         sh.attemptSeq,
		retry:       sh.retries,
		speculative: speculative,
		stolen:      stolen,
		born:        co.now(),
		ctx:         ctx,
		cancel:      cancel,
	}
	sh.attemptSeq++
	sh.attempts = append(sh.attempts, att)
	sh.state = service.StateRunning
	sh.backend = b
	return att
}

// startRunner attaches one dispatch loop for backend b to job j unless
// the job is finished or b already has one.
func (co *Coordinator) startRunner(j *cjob, b *backend) {
	j.smu.Lock()
	if j.closed || j.holders == 0 || j.runners[b.url] {
		j.smu.Unlock()
		return
	}
	j.runners[b.url] = true
	j.runnerCount++
	j.holders++
	j.runnersWg.Add(1)
	j.smu.Unlock()
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		defer func() {
			j.smu.Lock()
			j.runners[b.url] = false
			j.runnerCount--
			j.holders--
			j.smu.Unlock()
			j.runnersWg.Done()
			j.cond.Broadcast()
		}()
		pprof.Do(context.Background(), pprof.Labels("job", j.id, "backend", b.url),
			func(context.Context) { co.backendLoop(j, b) })
	}()
}

// backendLoop is one backend's dispatch loop: pull the next piece of
// work, run it in its own goroutine, repeat until the job is done or
// the backend is struck off. The loop returns only after its attempts
// have drained.
func (co *Coordinator) backendLoop(j *cjob, b *backend) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		wk := co.nextWork(j, b)
		if wk == nil {
			return
		}
		wg.Add(1)
		j.smu.Lock()
		j.holders++
		j.runnersWg.Add(1)
		j.smu.Unlock()
		go func() {
			defer wg.Done()
			defer func() {
				j.smu.Lock()
				j.inflight[b.url]--
				j.holders--
				j.smu.Unlock()
				j.runnersWg.Done()
				j.cond.Broadcast()
			}()
			pprof.Do(context.Background(),
				pprof.Labels("job", j.id, "shard", fmt.Sprintf("%d/%d", wk.sh.index, wk.sh.count)),
				func(context.Context) { co.runAttempt(j, b, wk) })
		}()
	}
}

// nextWork blocks until b can take on more work for j and claims it:
// a queued shard first, then — only with an empty queue — a steal from
// a backlogged peer, then a speculative duplicate of the slowest
// running shard. Returns nil when the job is finished (or b has been
// struck off) and the loop should exit.
func (co *Coordinator) nextWork(j *cjob, b *backend) *work {
	j.smu.Lock()
	defer j.smu.Unlock()
	for {
		if j.closed || b.flapping(co.opts.MaxBackendFailures) {
			return nil
		}
		if j.inflight[b.url] < co.capacity(b) {
			if wk := co.claimQueuedLocked(j, b); wk != nil {
				return wk
			}
			if len(j.queue) == 0 && !j.aborted.Load() {
				if wk := co.claimStolenLocked(j, b); wk != nil {
					return wk
				}
				if wk := co.claimSpeculativeLocked(j, b); wk != nil {
					return wk
				}
			}
		}
		j.cond.Wait()
	}
}

// claimQueuedLocked takes the first queued shard b may run. A shard
// avoids the backend that most recently lost it while any other
// dispatch loop is alive. Caller holds j.smu.
func (co *Coordinator) claimQueuedLocked(j *cjob, b *backend) *work {
	for i, sh := range j.queue {
		sh.mu.Lock()
		if sh.lastFailed == b.url && j.runnerCount > 1 {
			sh.mu.Unlock()
			continue
		}
		att := co.newAttemptLocked(j, sh, b, false, false)
		sh.mu.Unlock()
		copy(j.queue[i:], j.queue[i+1:])
		j.queue[len(j.queue)-1] = nil
		j.queue = j.queue[:len(j.queue)-1]
		j.inflight[b.url]++
		return &work{sh: sh, att: att}
	}
	return nil
}

// claimStolenLocked steals a shard whose sole attempt sits on a
// backlogged peer with zero streamed progress: the sub-job is still
// waiting in that backend's own queue, so moving it to an idle backend
// loses no work. The victim is cancelled, not duplicated — stealing
// reassigns queued work, speculation duplicates running work. Caller
// holds j.smu.
func (co *Coordinator) claimStolenLocked(j *cjob, b *backend) *work {
	// Count live (non-superseded) attempts per backend up front.
	// j.inflight lags reality here: a stolen victim keeps its inflight
	// slot until its goroutine exits, so a thief scanning in a tight
	// burst would see a stale backlog and strip a backend bare before
	// the first victim ever unwinds. Supersede flips synchronously,
	// so this count cannot double-steal the same backlog.
	live := make(map[string]int, len(j.inflight))
	for _, sh := range j.shards {
		sh.mu.Lock()
		if sh.state == service.StateRunning {
			for _, a := range sh.attempts {
				if !a.superseded.Load() {
					live[a.backend.url]++
				}
			}
		}
		sh.mu.Unlock()
	}
	for _, sh := range j.shards {
		sh.mu.Lock()
		if sh.state != service.StateRunning || len(sh.attempts) != 1 {
			sh.mu.Unlock()
			continue
		}
		victim := sh.attempts[0]
		// Require a genuinely stuck victim: old enough that its first
		// event should long since have landed, still at zero progress,
		// and behind a real backlog (≥2 live attempts) on its backend —
		// otherwise two idle backends would ping-pong fresh placements
		// between them before the first event can land. The last
		// zero-progress attempt on a backend is speculation's to
		// duplicate, not stealing's to cancel.
		if victim.backend == b || victim.progress.Load() > 0 ||
			victim.superseded.Load() || live[victim.backend.url] < 2 ||
			co.now().Sub(victim.born) < co.opts.StragglerAfter {
			sh.mu.Unlock()
			continue
		}
		victim.superseded.Store(true)
		rid := victim.remoteID
		att := co.newAttemptLocked(j, sh, b, false, true)
		sh.mu.Unlock()
		victim.cancel()
		go co.cancelRemote(j.tctx, j, victim.backend, rid, "stolen")
		co.met.shardsStolen.Inc()
		co.logger.InfoContext(j.tctx, "shard stolen from backlogged backend",
			"job", j.id, "shard", sh.index, "from", victim.backend.url, "to", b.url)
		j.inflight[b.url]++
		return &work{sh: sh, att: att}
	}
	return nil
}

// claimSpeculativeLocked duplicates the least-progressed running shard
// on an otherwise idle backend — the MapReduce backup task. The merge
// is bit-identical, so whichever attempt finishes first yields the
// same job; the loser is cancelled. At most two live attempts per
// shard. Caller holds j.smu.
func (co *Coordinator) claimSpeculativeLocked(j *cjob, b *backend) *work {
	var pick *shard
	var pickProgress int64
	for _, sh := range j.shards {
		sh.mu.Lock()
		ok := sh.state == service.StateRunning && len(sh.attempts) == 1 &&
			sh.attempts[0].backend != b && !sh.attempts[0].superseded.Load() &&
			co.now().Sub(sh.attempts[0].born) >= co.opts.StragglerAfter
		var p int64
		if ok {
			p = sh.attempts[0].progress.Load()
		}
		sh.mu.Unlock()
		if ok && (pick == nil || p < pickProgress) {
			pick, pickProgress = sh, p
		}
	}
	if pick == nil {
		return nil
	}
	pick.mu.Lock()
	// Re-validate: the shard may have finished between scan and claim.
	if pick.state != service.StateRunning || len(pick.attempts) != 1 || pick.attempts[0].backend == b {
		pick.mu.Unlock()
		return nil
	}
	att := co.newAttemptLocked(j, pick, b, true, false)
	pick.mu.Unlock()
	co.met.shardsSpeculated.Inc()
	co.logger.InfoContext(j.tctx, "speculating tail shard on idle backend",
		"job", j.id, "shard", pick.index, "backend", b.url)
	j.inflight[b.url]++
	return &work{sh: pick, att: att}
}

// runAttempt drives one attempt: submit the sub-job, stream it, and
// triage the outcome. One span per attempt on the cluster job's trace.
func (co *Coordinator) runAttempt(j *cjob, b *backend, wk *work) {
	sh, att := wk.sh, wk.att
	defer att.cancel()
	defer func() {
		removeAttempt(sh, att)
		j.cond.Broadcast()
	}()
	ctx, span := trace.Start(att.ctx, "shard")
	defer span.End()
	span.SetAttrInt("shard", sh.index)
	span.SetAttr("backend", b.url)
	span.SetAttrInt("retry", att.retry)
	if att.stolen {
		span.SetAttr("steal", "true")
	}
	if att.speculative {
		span.SetAttr("speculate", "true")
	}

	// The sub-job carries the attempt's key in place of the caller's:
	// the caller's key already deduped at the engine, and one key on
	// every shard would make a backend dedupe distinct shards into one
	// sub-job.
	sub := j.spec
	sub.FaultShard = &service.FaultShard{Index: sh.index, Count: sh.count}
	sub.IdempotencyKey = att.key
	rid, err := b.cl.Submit(ctx, sub)
	if err != nil {
		if att.superseded.Load() || j.aborted.Load() {
			go co.reclaim(ctx, j, b, sub)
		}
		span.SetStatus(trace.StatusError, err.Error())
		co.attemptLost(ctx, j, b, sh, att, err, true)
		return
	}
	sh.mu.Lock()
	att.remoteID = rid
	sh.remoteID = rid
	sh.mu.Unlock()
	span.SetAttr("remote_id", rid)

	if j.aborted.Load() || att.superseded.Load() {
		// An abort or supersede that raced this placement may have
		// missed the sub-job (both snapshot remote ids under sh.mu);
		// cancel it here so the backend stops and the stream below
		// terminates.
		co.cancelRemote(ctx, j, b, rid, "placement-race")
	}
	st, err := b.cl.Stream(ctx, rid, func(ev service.ProgressEvent) {
		att.progress.Add(1)
		j.pubMu.Lock()
		j.publish(j.merge.update(sh.index, ev))
		j.pubMu.Unlock()
	})
	if err == nil {
		switch st.State {
		case service.StateDone:
			res, rerr := b.cl.Result(ctx, rid)
			if rerr == nil {
				b.markOK()
				if co.completeShard(j, sh, att, st, res) {
					span.SetStatus(trace.StatusOK, "")
				} else {
					// A sibling attempt finished first; this result is
					// the bit-identical duplicate and is dropped.
					span.SetStatus(trace.StatusOK, "superseded")
				}
				return
			}
			// Transport failure or a refusal (e.g. the finished job
			// was evicted before the fetch): the shared triage below
			// retries what a rerun can recover and fails the rest.
			err = rerr
		case service.StateCancelled:
			if j.aborted.Load() {
				co.settleShard(j, sh, service.StateCancelled, nil)
				return
			}
			if att.superseded.Load() {
				// Our own steal/supersede cancel echoing back.
				return
			}
			// The backend cancelled the sub-job on its own — a
			// graceful drain (SIGTERM) rather than our fan-out. To
			// the cluster that is a lost shard like any other death:
			// requeue it for a surviving backend.
			err = fmt.Errorf("backend %s cancelled sub-job %s (draining?)", b.url, rid)
		case service.StateFailed:
			span.SetStatus(trace.StatusError, st.Error)
			if !att.superseded.Load() {
				co.failShard(ctx, j, sh, fmt.Errorf("backend %s: %s", b.url, st.Error))
			}
			return
		default:
			err = fmt.Errorf("stream of %s on %s ended in non-terminal state %q", rid, b.url, st.State)
		}
	}
	span.SetStatus(trace.StatusError, err.Error())
	co.attemptLost(ctx, j, b, sh, att, err, false)
}

// removeAttempt unlinks att from its shard (idempotent) and returns
// how many live attempts remain.
func removeAttempt(sh *shard, att *attempt) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, a := range sh.attempts {
		if a == att {
			copy(sh.attempts[i:], sh.attempts[i+1:])
			sh.attempts[len(sh.attempts)-1] = nil
			sh.attempts = sh.attempts[:len(sh.attempts)-1]
			break
		}
	}
	return len(sh.attempts)
}

// attemptLost triages a non-terminal attempt outcome: drop it when a
// duplicate still covers the shard or the loss is our own supersede,
// otherwise requeue the shard (bounded by MaxShardRetries). The
// attempt is unlinked first so two concurrent losses cannot each see
// the other as a live sibling and orphan the shard.
func (co *Coordinator) attemptLost(lctx context.Context, j *cjob, b *backend, sh *shard, att *attempt, err error, submitting bool) {
	siblings := removeAttempt(sh, att)
	if att.superseded.Load() {
		// The error is self-inflicted — our own steal or supersede
		// cancelled this attempt's context — so it says nothing about
		// the backend's health.
		return
	}
	var apiErr *service.APIError
	isAPI := errors.As(err, &apiErr)
	if !isAPI && att.ctx.Err() == nil {
		// A call the abort cut off says nothing about the backend.
		b.markFailure()
	}
	if isAPI && !submitting && !errors.Is(err, service.ErrNotFound) {
		// The backend answered but refused mid-flight: not a transport
		// failure, and retrying elsewhere cannot help a spec-level
		// refusal. (A refused *submit* is different — draining and
		// admission-control refusals are backend-local, so the shard
		// goes back in the queue for another backend.)
		if siblings > 0 {
			return
		}
		co.failShard(lctx, j, sh, err)
		return
	}
	if j.aborted.Load() {
		co.settleShard(j, sh, service.StateCancelled, nil)
		return
	}
	if siblings > 0 {
		// A live duplicate still covers the shard: drop this attempt
		// rather than queue a third copy.
		co.logger.DebugContext(lctx, "shard attempt lost, duplicate continues",
			"backend", b.url, "job", j.id, "shard", sh.index, "err", err)
		return
	}
	sh.mu.Lock()
	if terminalState(sh.state) {
		sh.mu.Unlock()
		return
	}
	sh.retries++
	retries := sh.retries
	sh.lastFailed = b.url
	if retries > co.opts.MaxShardRetries {
		sh.mu.Unlock()
		co.failShard(lctx, j, sh, fmt.Errorf("shard %d/%d: %d retries exhausted, last error: %v",
			sh.index, sh.count, co.opts.MaxShardRetries, err))
		return
	}
	sh.state = service.StateQueued
	sh.mu.Unlock()
	co.met.shardRetries.Inc()
	co.logger.WarnContext(lctx, "shard lost, requeueing", "backend", b.url,
		"job", j.id, "shard", sh.index, "shards", sh.count, "err", err)
	j.smu.Lock()
	j.queue = append(j.queue, sh)
	j.smu.Unlock()
	j.cond.Broadcast()
}

// completeShard claims sh's terminal transition for att's result.
// Returns false when a sibling attempt won the race (the caller's
// result is the bit-identical duplicate). The winner feeds the merger
// and cancels the losing attempts.
func (co *Coordinator) completeShard(j *cjob, sh *shard, att *attempt, st service.JobStatus, res *service.JobResult) bool {
	type loser struct {
		att *attempt
		rid string
	}
	sh.mu.Lock()
	if terminalState(sh.state) {
		sh.mu.Unlock()
		return false
	}
	sh.state = service.StateDone
	sh.result = res
	sh.backend = att.backend
	sh.remoteID = att.remoteID
	var losers []loser
	for _, a := range sh.attempts {
		if a == att {
			continue
		}
		a.superseded.Store(true)
		losers = append(losers, loser{att: a, rid: a.remoteID})
	}
	sh.mu.Unlock()
	if att.speculative {
		co.met.speculationWins.Inc()
		co.logger.InfoContext(j.tctx, "speculative duplicate won",
			"job", j.id, "shard", sh.index, "backend", att.backend.url)
	}
	for _, l := range losers {
		l.att.cancel()
		go co.cancelRemote(j.tctx, j, l.att.backend, l.rid, "superseded")
	}
	j.pubMu.Lock()
	j.merge.markDone(sh.index, st)
	j.publish(j.merge.collect())
	j.pubMu.Unlock()
	co.shardSettled(j)
	return true
}

// settleShard claims sh's terminal transition to a failed or cancelled
// state; false means another caller already settled it. Remaining
// attempts are superseded and their contexts cancelled (their remote
// sub-jobs are the abort fan-out's job).
func (co *Coordinator) settleShard(j *cjob, sh *shard, state string, err error) bool {
	sh.mu.Lock()
	if terminalState(sh.state) {
		sh.mu.Unlock()
		return false
	}
	sh.state = state
	sh.err = err
	others := append([]*attempt(nil), sh.attempts...)
	sh.mu.Unlock()
	for _, a := range others {
		a.superseded.Store(true)
		a.cancel()
	}
	co.shardSettled(j)
	return true
}

// shardSettled accounts one shard reaching a terminal state; the last
// one closes the work queue and wakes every dispatch loop to exit.
func (co *Coordinator) shardSettled(j *cjob) {
	j.smu.Lock()
	j.remaining--
	if j.remaining <= 0 {
		j.closed = true
	}
	j.smu.Unlock()
	j.cond.Broadcast()
}

// failShard records a shard failure and aborts the job: with one shard
// unrecoverable the merge can never complete, so every other sub-job
// is stopped rather than graded to no end.
func (co *Coordinator) failShard(lctx context.Context, j *cjob, sh *shard, err error) {
	if !co.settleShard(j, sh, service.StateFailed, err) {
		return
	}
	co.logger.WarnContext(lctx, "shard failed, aborting job",
		"job", j.id, "shard", sh.index, "err", err)
	co.abortJob(j)
}

// abortJob stops all outstanding work on j: queued shards settle
// immediately, live attempts' sub-jobs get a remote cancel. Shards
// with in-flight attempts settle when those attempts observe the
// cancellation.
func (co *Coordinator) abortJob(j *cjob) {
	j.aborted.Store(true)
	j.smu.Lock()
	queued := j.queue
	j.queue = nil
	j.smu.Unlock()
	for _, sh := range queued {
		co.settleShard(j, sh, service.StateCancelled, nil)
	}
	type rc struct {
		b   *backend
		rid string
	}
	var rcs []rc
	var submitting []*attempt
	for _, sh := range j.shards {
		sh.mu.Lock()
		for _, a := range sh.attempts {
			if a.remoteID != "" {
				rcs = append(rcs, rc{b: a.backend, rid: a.remoteID})
			} else {
				submitting = append(submitting, a)
			}
		}
		sh.mu.Unlock()
	}
	for _, r := range rcs {
		go co.cancelRemote(j.tctx, j, r.b, r.rid, "abort")
	}
	// A submit still in flight is cut off rather than waited for;
	// runAttempt reclaims whatever sub-job the backend may have
	// accepted.
	for _, a := range submitting {
		a.cancel()
	}
	j.cond.Broadcast()
}

// reclaim cancels the sub-job a cut-off submit may have left running.
// A submit that fails once its attempt is superseded or its job
// aborted may still have been accepted, and then nothing would read
// or cancel the sub-job. Re-sending the same idempotency key returns
// that sub-job's id, or creates one that is cancelled at once. lctx
// carries the attempt's trace; the re-send, like cancelRemote, lasts
// until the backend answers or the coordinator closes.
func (co *Coordinator) reclaim(lctx context.Context, j *cjob, b *backend, sub service.JobSpec) {
	rid, err := b.cl.Submit(trace.ContextWithSpan(co.ctx, trace.SpanFromContext(lctx)), sub)
	if err != nil {
		co.logger.WarnContext(lctx, "reclaiming a cut-off sub-job failed", "backend", b.url,
			"job", j.id, "shard", sub.FaultShard.Index, "err", err)
		return
	}
	co.cancelRemote(lctx, j, b, rid, "reclaim")
}

// cancelRemote cancels one sub-job, logging failures with the job's
// trace context: a cancel that silently fails leaves a backend grading
// work nobody will read, and the log line is the only witness. Benign
// refusals — the sub-job already finished or was evicted — are not
// failures.
func (co *Coordinator) cancelRemote(lctx context.Context, j *cjob, b *backend, rid, why string) {
	if rid == "" {
		return
	}
	if _, err := b.cl.Cancel(co.ctx, rid); err != nil &&
		!errors.Is(err, service.ErrFinished) && !errors.Is(err, service.ErrNotFound) {
		co.logger.WarnContext(lctx, "cancelling sub-job failed", "backend", b.url,
			"job", j.id, "remote_id", rid, "reason", why, "err", err)
	}
}

// finalize runs once every dispatch loop and attempt has returned: a
// failed shard fails the job, a cancel cancels it, and otherwise the
// shard results merge into the job's result.
func (co *Coordinator) finalize(ctx context.Context, j *cjob) (*service.JobResult, error) {
	var failed error
	cancelled := ctx.Err() != nil
	// The merged result is the job's only retained payload; the
	// per-shard copies would double its memory for no reader.
	results := make([]*service.JobResult, len(j.shards))
	for i, sh := range j.shards {
		sh.mu.Lock()
		switch sh.state {
		case service.StateFailed:
			if failed == nil {
				failed = sh.err
			}
		case service.StateCancelled:
			cancelled = true
		}
		results[i], sh.result = sh.result, nil
		sh.mu.Unlock()
	}
	switch {
	case failed != nil:
		return nil, failed
	case cancelled:
		return nil, context.Canceled
	}
	stop := j.run.Phase(service.PhaseMerge)
	start := co.now()
	merged, err := MergeResults(j.id, results)
	co.met.mergeSeconds.Observe(co.now().Sub(start).Seconds())
	stop()
	return merged, err
}

// publish forwards merged progress events to the engine job's status
// and subscribers.
func (j *cjob) publish(evs []service.ProgressEvent) {
	for _, ev := range evs {
		j.run.Publish(ev)
	}
}

func terminalState(s string) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCancelled
}

// job returns the fan-out of engine job id, nil for an unknown id.
func (co *Coordinator) job(id string) *cjob {
	j, _ := co.svc.Body(id).(*cjob)
	return j
}

// Shards returns the per-shard placement state of a cluster job, for
// diagnostics. Backend and RemoteID name the latest placement while
// the shard runs and the winning attempt once it is done.
func (co *Coordinator) Shards(id string) ([]ShardStatus, error) {
	j := co.job(id)
	if j == nil {
		return nil, service.ErrNotFound
	}
	out := make([]ShardStatus, len(j.shards))
	for i, sh := range j.shards {
		sh.mu.Lock()
		st := ShardStatus{
			Index:    sh.index,
			Count:    sh.count,
			RemoteID: sh.remoteID,
			State:    sh.state,
			Retries:  sh.retries,
			Attempts: sh.attemptSeq,
		}
		if sh.backend != nil {
			st.Backend = sh.backend.url
		}
		if sh.err != nil {
			st.Error = sh.err.Error()
		}
		sh.mu.Unlock()
		out[i] = st
	}
	return out, nil
}

// Stats sums the service counters of every reachable backend, fetched
// concurrently so a dead backend costs one ProbeTimeout in total, not
// per backend; it contributes nothing rather than failing the
// aggregate. Uptime and version are the coordinator's own.
func (co *Coordinator) Stats(ctx context.Context) (service.Stats, error) {
	stats := make([]*service.Stats, len(co.backends))
	var wg sync.WaitGroup
	for i, b := range co.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, co.opts.ProbeTimeout)
			defer cancel()
			st, err := b.cl.Stats(pctx)
			if err != nil {
				co.logger.Warn("fetching backend stats failed", "backend", b.url, "err", err)
				return
			}
			stats[i] = &st
		}(i, b)
	}
	wg.Wait()
	own := co.svc.Stats()
	out := service.Stats{UptimeSeconds: own.UptimeSeconds, Version: own.Version}
	for _, st := range stats {
		if st == nil {
			continue
		}
		out.JobsSubmitted += st.JobsSubmitted
		out.JobsDone += st.JobsDone
		out.JobsFailed += st.JobsFailed
		out.JobsCancelled += st.JobsCancelled
		out.JobsDeduped += st.JobsDeduped
		out.JobsRejected += st.JobsRejected
		out.JobsRunning += st.JobsRunning
		out.JobsQueued += st.JobsQueued
		out.Workers += st.Workers
		r, sr := &out.Registry, st.Registry
		r.CircuitHits += sr.CircuitHits
		r.CircuitMisses += sr.CircuitMisses
		r.GoodHits += sr.GoodHits
		r.GoodMisses += sr.GoodMisses
		r.CircuitEvictions += sr.CircuitEvictions
		r.GoodEvictions += sr.GoodEvictions
		r.CompiledHits += sr.CompiledHits
		r.CompiledMisses += sr.CompiledMisses
		r.CompiledEvictions += sr.CompiledEvictions
		r.Circuits += sr.Circuits
		r.Goods += sr.Goods
		r.Compiled += sr.Compiled
	}
	return out, nil
}

// Close waits for every job on the coordinator's engine to finish
// (cancel them first for a fast shutdown), then stops the membership
// re-probe loop and closes the idle connections of the client New
// built.
func (co *Coordinator) Close() error {
	co.svc.Close()
	co.stop()
	co.wg.Wait()
	if co.ownHTTP != nil {
		co.ownHTTP.CloseIdleConnections()
	}
	return nil
}
