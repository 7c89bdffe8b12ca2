// Package cluster fans one fault-grading job out across multiple
// adifod backends. The coordinator partitions the collapsed fault
// universe into deterministic index-range shards (service.ShardRange),
// submits sub-jobs with the wire's fault_shard selector set, merges the
// streamed per-block progress and the final per-shard results into a
// single JobResult, and retries the shard of a dead backend on a
// surviving one.
//
// Placement is a work queue: the coordinator cuts ShardsPerBackend
// shards per healthy backend — many more shards than backends — and
// hands a backend the next queued shard whenever its in-flight window
// of MaxInFlightPerBackend sub-jobs has room. The window defaults to
// ShardsPerBackend, so a healthy job places every shard in its first
// pass, and only shards requeued after a failure wait in the queue. A
// fast backend therefore takes no queued work from a slow one;
// speculation is what moves work to it. Once the queue is empty, a
// backend with room speculatively duplicates the least-progressed
// shard whose only attempt is older than StragglerAfter: the first
// attempt to reach a terminal result wins and the loser is cancelled. A background
// re-probe loop re-admits backends that were unhealthy (or flapping)
// at submit time, so membership is dynamic over a job's lifetime.
//
// One goroutine owns each job's placement state: the one running the
// job's body. It places work, its attempts report their sub-job ids
// and outcomes to it over a channel, and one timer wakes it when an
// attempt comes of straggler age.
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
// The coordinator learns about its backends from one probe, a sweep
// that asks a set of them for /v1/stats concurrently. Submit sweeps
// the backends that are not flapping, and those that answer become the
// job's members; the re-probe loop sweeps every backend and offers each
// one that answers to the running jobs; Stats sweeps every backend and
// sums the answers. Health is one count per backend of the consecutive
// calls it did not answer, probes and sub-job transport errors alike;
// any answer resets it, and a call that failed because its caller gave
// up counts as nothing. A backend whose count reaches
// Options.MaxBackendFailures is flapping: it is excluded from placement
// until a probe or sub-job succeeds on it again.
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/obs/trace"
	"github.com/eda-go/adifo/internal/service"
	"github.com/eda-go/adifo/internal/service/client"
)

// maxShardRetries is how many times one shard may be requeued after
// lost attempts before the cluster job fails.
const maxShardRetries = 3

// Options configures a Coordinator; zero values select sensible
// defaults.
type Options struct {
	// HTTPClient is used for every backend call. Nil selects a client
	// of the coordinator's own, whose transport keeps
	// MaxInFlightPerBackend idle connections per backend; Close closes
	// them.
	HTTPClient *http.Client
	// ProbeTimeout bounds one sweep of /v1/stats health probes, which
	// run concurrently (default 2s).
	ProbeTimeout time.Duration
	// MaxBackendFailures is the count of consecutive calls a backend
	// did not answer, probes and sub-job transport errors alike, at
	// which it is considered flapping and excluded from placement until
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
	// MaxInFlightPerBackend is the in-flight window of every backend:
	// how many sub-jobs of one cluster job run concurrently on it
	// (default: ShardsPerBackend, so the whole queue streams at once
	// when every backend is healthy and the queue only backs up under
	// failures or skew).
	MaxInFlightPerBackend int
	// ReprobeInterval is the period of the background membership sweep
	// that probes every backend, counts its health, and offers each one
	// that answers to the running jobs, which re-admits recovered
	// backends (default 3s).
	ReprobeInterval time.Duration
	// StragglerAfter is how old a shard's only attempt must be before a
	// backend with room, once the queue is empty, may speculatively
	// duplicate it. The age gate keeps healthy fast jobs at exactly one
	// attempt per shard (default 2s).
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

// backend is one adifod server plus its health: failures counts the
// consecutive calls it did not answer (see Coordinator.record).
type backend struct {
	url string
	cl  *client.Client

	mu       sync.Mutex
	failures int
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

	// ctx lives until Close. It ends the re-probe loop, and it bounds
	// remote cancels and reclaims: those wait as long as a loaded
	// backend takes to answer, since a sub-job they give up on keeps
	// running. wg counts all of them (see spawn).
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
	co.spawn(co.reprobeLoop)
	return co, nil
}

// spawn runs f in a goroutine that Close waits for. Jobs call it from
// their loops only, which end before Close waits.
func (co *Coordinator) spawn(f func()) {
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		f()
	}()
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
// most two live attempts: its primary and a speculative duplicate.
// Apart from progress, only the owning job's loop touches an attempt
// once it has started.
type attempt struct {
	sh          *shard
	backend     *backend
	key         string // idempotency key of the sub-job
	retry       int    // sh.retries at creation; the span's retry attribute
	speculative bool   // duplicate of a running attempt
	born        time.Time

	// ctx bounds this attempt's outbound calls; the loop cancels it
	// when the attempt's report ends it or a sibling's result
	// supersedes it.
	ctx    context.Context
	cancel context.CancelFunc

	remoteID string // sub-job id on the backend, once reported
	// superseded marks an attempt the loop gave up on: its shard
	// settled elsewhere or the job stopped. Its end is bookkeeping,
	// not a loss.
	superseded bool

	// progress counts streamed events, written by the attempt's
	// goroutine: speculation duplicates the least-progressed shard.
	progress atomic.Int64
}

// shard is one fault-range sub-job of a cluster job.
type shard struct {
	index, count int

	state      string     // queued/running/done/failed/cancelled from the cluster's view
	attempts   []*attempt // started attempts that have not reported their end
	attemptSeq int
	retries    int
	lastFailed *backend // the backend that most recently lost this shard
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
// runs. The goroutine running Run owns the placement state: members,
// queue, inflight, live, remaining, and every shard and attempt.
type cjob struct {
	co     *Coordinator
	spec   service.JobSpec
	shards []*shard
	merge  *merger

	// id is the engine job's id and run its handle; tctx carries the
	// job's root span (plus the engine's recorder) without the job's
	// cancellation: attempt spans start under it, and outbound backend
	// calls inject its traceparent. Run sets all three before it starts
	// an attempt.
	id   string
	run  *service.Run
	tctx context.Context

	// pubMu guards merge and serializes merge-and-publish pairs, so
	// merged events reach subscribers in block order even when shard
	// streams race.
	pubMu sync.Mutex

	// reports carries attempts' sub-job ids and final outcomes to Run.
	// offers carries backends the re-probe loop hands over; it has a
	// slot per backend, so admit never blocks.
	reports chan report
	offers  chan *backend

	// mu orders the loop's writes of the shard fields Shards reads
	// (state, backend, remoteID, retries, attemptSeq, err) before
	// Shards' reads; the loop itself reads them without it.
	mu sync.Mutex

	members   map[*backend]bool // backends placement may use
	queue     []*shard          // shards awaiting (re)placement
	inflight  map[*backend]int  // live attempts per backend
	live      int               // attempts that have not reported their end
	remaining int               // shards not yet terminal
}

// report is an attempt's message to its job's loop: the sub-job id
// once the backend accepted the submit, then exactly one final report
// (id empty) with the result or the reason there is none.
type report struct {
	att    *attempt
	id     string
	st     service.JobStatus  // the status the sub-job's stream ended with
	res    *service.JobResult // nil exactly when err is set
	err    error
	failed bool // err is the backend failing the sub-job itself
	submit bool // err came from the submit
}

// probe is the one sweep: it asks every backend in bs for /v1/stats
// concurrently, under one ProbeTimeout for the whole sweep, and returns
// the answers in bs order, nil for each backend that failed. Each
// round trip is observed on the probe histogram (a dead backend
// observes the timeout it cost the sweep) and recorded on the
// backend's health, except a failure because ctx ended: the caller
// gave up, the backend did not fail.
func (co *Coordinator) probe(ctx context.Context, bs []*backend) []*service.Stats {
	pctx, cancel := context.WithTimeout(ctx, co.opts.ProbeTimeout)
	defer cancel()
	out := make([]*service.Stats, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := co.now()
			st, err := b.cl.Stats(pctx)
			if err != nil && ctx.Err() != nil {
				return
			}
			co.met.probeSeconds.With(b.url).Observe(co.now().Sub(start).Seconds())
			co.record(b, err)
			if err == nil {
				out[i] = &st
			}
		}()
	}
	wg.Wait()
	return out
}

// record counts the outcome of one call to b: a failure adds one to
// its failure count and an answer resets it. It logs the transitions
// only: the first failure after an answer, and an answer that clears
// failures.
func (co *Coordinator) record(b *backend, err error) {
	b.mu.Lock()
	was := b.failures
	if err != nil {
		b.failures++
	} else {
		b.failures = 0
	}
	b.mu.Unlock()
	switch {
	case err != nil && was == 0:
		co.logger.Warn("backend unhealthy", "backend", b.url, "err", err)
	case err == nil && was > 0:
		co.logger.Info("backend recovered", "backend", b.url, "failures", was)
	}
}

// healthyBackends picks a new job's members: it sweeps the backends
// that are not flapping, counting each one it skips as an exclusion,
// and returns those that answered in configuration order.
func (co *Coordinator) healthyBackends(ctx context.Context) []*backend {
	var ask []*backend
	for _, b := range co.backends {
		if b.flapping(co.opts.MaxBackendFailures) {
			co.met.exclusions.With(b.url).Inc()
			continue
		}
		ask = append(ask, b)
	}
	var out []*backend
	for i, st := range co.probe(ctx, ask) {
		if st != nil {
			out = append(out, ask[i])
		}
	}
	return out
}

// reprobeLoop is the dynamic-membership sweep: it periodically probes
// every backend and offers each one that answers to the running jobs,
// which re-admits backends that were dead (or flapping) into their
// placement.
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
	for i, st := range co.probe(co.ctx, co.backends) {
		if st != nil {
			co.admit(co.backends[i])
		}
	}
}

// admit offers b to every running job — the work-queue half of dynamic
// membership. A job's loop adds b to the backends it places on, or
// merely re-places if b is already one, which also wakes it for a
// member whose failures the probe just cleared. admit never blocks: a
// job with a full offer buffer skips this offer and gets the next
// sweep's, and a job cancelled before it ran never reads its offers.
func (co *Coordinator) admit(b *backend) {
	for _, st := range co.svc.Jobs() {
		if terminalState(st.State) {
			continue
		}
		if j := co.job(st.ID); j != nil {
			select {
			case j.offers <- b:
			default:
			}
		}
	}
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
		merge:     newMerger(count, maxBlocks(spec.Patterns)),
		reports:   make(chan report),
		offers:    make(chan *backend, len(co.backends)),
		members:   make(map[*backend]bool),
		inflight:  make(map[*backend]int),
		remaining: count,
	}
	for _, b := range healthy {
		j.members[b] = true
	}
	for i := 0; i < count; i++ {
		j.shards = append(j.shards, &shard{index: i, count: count, state: service.StateQueued})
	}
	j.queue = append([]*shard(nil), j.shards...)
	return j, nil
}

// Run is the body of a cluster job (service.Body) and the loop that
// owns its placement. Each pass places what it can and then waits for
// one event: an attempt's report, an offered backend, the straggler
// timer or the job's cancellation. It returns once every shard is
// terminal and every attempt has reported its end, with the merged
// result.
func (j *cjob) Run(ctx context.Context, r *service.Run) (*service.JobResult, error) {
	span := trace.SpanFromContext(ctx)
	span.SetAttrInt("shards", len(j.shards))
	span.SetAttrInt("backends", len(j.members))
	j.id, j.run, j.tctx = r.ID, r, context.WithoutCancel(ctx)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	cancelled := ctx.Done()
	for {
		j.place()
		if j.remaining == 0 && j.live == 0 {
			break
		}
		var straggler <-chan time.Time
		if d, ok := j.nextStraggler(); ok {
			timer.Reset(d)
			straggler = timer.C
		}
		select {
		case rep := <-j.reports:
			j.handle(rep)
		case b := <-j.offers:
			j.members[b] = true
		case <-straggler:
		case <-cancelled:
			cancelled = nil
			j.abort()
		}
	}
	return j.co.finalize(ctx, j)
}

// place hands out work round-robin over the usable members (in
// configuration order, one claim per backend per round) while their
// in-flight windows have room. A backend takes the first queued shard
// it may run — a shard avoids the backend that last lost it while
// another backend is usable — and, once the queue is empty, a
// duplicate of the least-progressed straggler. Round-robin keeps a
// job's shards spread across backends even when a window is larger
// than ShardsPerBackend. A queue that no usable backend and no live
// attempt can drain fails.
func (j *cjob) place() {
	co := j.co
	var usable []*backend
	for _, b := range co.backends {
		if j.members[b] && !b.flapping(co.opts.MaxBackendFailures) {
			usable = append(usable, b)
		}
	}
	for claimed := true; claimed; {
		claimed = false
		for _, b := range usable {
			if j.inflight[b] >= co.opts.MaxInFlightPerBackend {
				continue
			}
			sh, speculative := j.claimQueued(b, len(usable) > 1), false
			if sh == nil && len(j.queue) == 0 {
				sh, speculative = j.straggler(b), true
			}
			if sh != nil {
				j.start(sh, b, speculative)
				claimed = true
			}
		}
	}
	if len(usable) == 0 && j.live == 0 {
		for _, sh := range j.queue {
			j.settle(sh, service.StateFailed, errors.New("no healthy backend available"))
		}
		j.queue = nil
	}
}

// claimQueued removes and returns the first queued shard b may run;
// avoid says whether a shard passes over the backend that last lost
// it.
func (j *cjob) claimQueued(b *backend, avoid bool) *shard {
	for i, sh := range j.queue {
		if avoid && sh.lastFailed == b {
			continue
		}
		j.queue = slices.Delete(j.queue, i, i+1)
		return sh
	}
	return nil
}

// straggler picks the shard b should duplicate: of the running shards
// whose only attempt is on another backend and older than
// StragglerAfter, the least-progressed — which prefers an attempt
// still waiting in a backlogged backend's queue.
func (j *cjob) straggler(b *backend) *shard {
	now := j.co.now()
	var pick *shard
	var least int64
	for _, sh := range j.shards {
		if sh.state != service.StateRunning || len(sh.attempts) != 1 {
			continue
		}
		a := sh.attempts[0]
		if a.backend == b || now.Sub(a.born) < j.co.opts.StragglerAfter {
			continue
		}
		if p := a.progress.Load(); pick == nil || p < least {
			pick, least = sh, p
		}
	}
	return pick
}

// nextStraggler is how long until the next only-attempt comes of
// straggler age, which no event would announce. Attempts already of
// age wait for an event that frees a window, and while the queue holds
// shards nothing is duplicated at all; both report false.
func (j *cjob) nextStraggler() (time.Duration, bool) {
	if len(j.queue) > 0 {
		return 0, false
	}
	now := j.co.now()
	next := time.Duration(math.MaxInt64)
	for _, sh := range j.shards {
		if sh.state != service.StateRunning || len(sh.attempts) != 1 {
			continue
		}
		if d := sh.attempts[0].born.Add(j.co.opts.StragglerAfter).Sub(now); d > 0 {
			next = min(next, d)
		}
	}
	return next, next < math.MaxInt64
}

// start mints the next attempt of sh on b and runs it in a goroutine
// of its own, which reports to the loop.
func (j *cjob) start(sh *shard, b *backend, speculative bool) {
	co := j.co
	ctx, cancel := context.WithCancel(j.tctx)
	att := &attempt{
		sh:          sh,
		backend:     b,
		key:         co.shardKey(j.id, sh.index, sh.count, sh.attemptSeq),
		retry:       sh.retries,
		speculative: speculative,
		born:        co.now(),
		ctx:         ctx,
		cancel:      cancel,
	}
	sh.attempts = append(sh.attempts, att)
	j.mu.Lock()
	sh.attemptSeq++
	sh.state = service.StateRunning
	sh.backend = b
	j.mu.Unlock()
	j.inflight[b]++
	j.live++
	if speculative {
		co.met.shardsSpeculated.Inc()
		co.logger.InfoContext(j.tctx, "speculating tail shard on idle backend",
			"job", j.id, "shard", sh.index, "backend", b.url)
	}
	labels := pprof.Labels("job", j.id, "shard", fmt.Sprintf("%d/%d", sh.index, sh.count))
	go pprof.Do(context.Background(), labels, func(context.Context) {
		j.reports <- j.runAttempt(att)
	})
}

// subSpec is att's sub-job. It carries the attempt's key in place of
// the caller's: the caller's key already deduped at the engine, and one
// key on every shard would make a backend dedupe distinct shards into
// one sub-job.
func (j *cjob) subSpec(att *attempt) service.JobSpec {
	sub := j.spec
	sub.FaultShard = &service.FaultShard{Index: att.sh.index, Count: att.sh.count}
	sub.IdempotencyKey = att.key
	return sub
}

// runAttempt drives one attempt: it submits the sub-job, reports its
// id, streams it into the merger and fetches its result, and returns
// the final report. One span per attempt on the cluster job's trace.
func (j *cjob) runAttempt(att *attempt) (rep report) {
	sh, b := att.sh, att.backend
	rep.att = att
	ctx, span := trace.Start(att.ctx, "shard")
	defer span.End()
	span.SetAttrInt("shard", sh.index)
	span.SetAttr("backend", b.url)
	span.SetAttrInt("retry", att.retry)
	if att.speculative {
		span.SetAttr("speculate", "true")
	}
	defer func() {
		if rep.err != nil {
			span.SetStatus(trace.StatusError, rep.err.Error())
		} else {
			span.SetStatus(trace.StatusOK, "")
		}
	}()

	rid, err := b.cl.Submit(ctx, j.subSpec(att))
	if err != nil {
		rep.err, rep.submit = err, true
		return rep
	}
	span.SetAttr("remote_id", rid)
	j.reports <- report{att: att, id: rid}
	// bad is the first event the merger refused; the stream callback
	// runs on this goroutine.
	var bad error
	rep.st, err = b.cl.Stream(ctx, rid, func(ev service.ProgressEvent) {
		if bad != nil {
			return
		}
		att.progress.Add(1)
		j.pubMu.Lock()
		evs, err := j.merge.update(sh.index, ev)
		j.publish(evs)
		j.pubMu.Unlock()
		if err != nil {
			// The attempt ends as on a transport error, so the loop
			// requeues the shard.
			bad = fmt.Errorf("backend %s, sub-job %s: %w", b.url, rid, err)
			att.cancel()
		}
	})
	switch {
	case bad != nil:
		err = bad
	case err != nil:
	case rep.st.State == service.StateDone:
		// A refused fetch (the finished sub-job was evicted, say) is a
		// loss like a transport failure: the loop retries what a rerun
		// can recover and fails the rest.
		rep.res, err = b.cl.Result(ctx, rid)
	case rep.st.State == service.StateFailed:
		rep.failed = true
		err = fmt.Errorf("backend %s: %s", b.url, rep.st.Error)
	case rep.st.State == service.StateCancelled:
		// Unless the loop cancelled it, the backend cancelled the
		// sub-job on its own: a graceful drain (SIGTERM), which to the
		// cluster is a lost shard like any other death.
		err = fmt.Errorf("backend %s cancelled sub-job %s (draining?)", b.url, rid)
	default:
		err = fmt.Errorf("stream of %s on %s ended in non-terminal state %q", rid, b.url, rep.st.State)
	}
	rep.err = err
	return rep
}

// handle applies one attempt report. An id report records the sub-job
// and cancels it if the attempt is already superseded. A final report
// ends the attempt and triages its outcome: a result settles the
// shard, a failed sub-job fails the job, and any other loss requeues
// the shard unless a sibling still covers it.
func (j *cjob) handle(rep report) {
	co, att := j.co, rep.att
	sh, b := att.sh, att.backend
	if rep.id != "" {
		att.remoteID = rep.id
		if att.superseded {
			co.spawn(func() { co.cancelRemote(j, b, rep.id, "superseded") })
			return
		}
		j.mu.Lock()
		sh.remoteID = rep.id
		j.mu.Unlock()
		return
	}
	att.cancel()
	j.live--
	j.inflight[b]--
	sh.attempts = slices.DeleteFunc(sh.attempts, func(a *attempt) bool { return a == att })
	switch {
	case att.superseded:
		// The loop gave up on this attempt, so its end says nothing
		// about the backend. A submit it cut off may still have been
		// accepted.
		if rep.submit {
			co.spawn(func() { co.reclaim(j, att) })
		}
	case rep.err == nil:
		co.record(b, nil)
		j.complete(sh, att, rep)
	case rep.failed:
		j.fail(sh, rep.err)
	default:
		j.lost(sh, att, rep)
	}
}

// lost triages an attempt that ended without a result: the backend's
// fault unless the backend answered, and a requeue (bounded by
// maxShardRetries) unless a sibling attempt still covers the shard.
// Its sub-job is cancelled: a live backend would run it for nobody.
func (j *cjob) lost(sh *shard, att *attempt, rep report) {
	co, b, err := j.co, att.backend, rep.err
	if rid := att.remoteID; rid != "" {
		co.spawn(func() { co.cancelRemote(j, b, rid, "lost") })
	}
	var apiErr *service.APIError
	isAPI := errors.As(err, &apiErr)
	if !isAPI {
		co.record(b, err)
	}
	if isAPI && !rep.submit && !errors.Is(err, service.ErrNotFound) {
		// The backend answered but refused mid-flight: not a transport
		// failure, and retrying elsewhere cannot help a spec-level
		// refusal. (A refused *submit* is different — draining and
		// admission-control refusals are backend-local, so the shard
		// goes back in the queue for another backend.)
		if len(sh.attempts) == 0 {
			j.fail(sh, err)
		}
		return
	}
	if len(sh.attempts) > 0 {
		co.logger.DebugContext(j.tctx, "shard attempt lost, duplicate continues",
			"backend", b.url, "job", j.id, "shard", sh.index, "err", err)
		return
	}
	sh.lastFailed = b
	j.mu.Lock()
	sh.retries++
	sh.state = service.StateQueued
	j.mu.Unlock()
	if sh.retries > maxShardRetries {
		j.fail(sh, fmt.Errorf("shard %d/%d: %d retries exhausted, last error: %v",
			sh.index, sh.count, maxShardRetries, err))
		return
	}
	co.met.shardRetries.Inc()
	co.logger.WarnContext(j.tctx, "shard lost, requeueing", "backend", b.url,
		"job", j.id, "shard", sh.index, "shards", sh.count, "err", err)
	j.queue = append(j.queue, sh)
}

// complete settles sh with att's result, which feeds the merger, and
// supersedes the losing sibling.
func (j *cjob) complete(sh *shard, att *attempt, rep report) {
	co := j.co
	j.settle(sh, service.StateDone, nil)
	j.mu.Lock()
	sh.backend, sh.remoteID = att.backend, att.remoteID
	j.mu.Unlock()
	sh.result = rep.res
	if att.speculative {
		co.met.speculationWins.Inc()
		co.logger.InfoContext(j.tctx, "speculative duplicate won",
			"job", j.id, "shard", sh.index, "backend", att.backend.url)
	}
	j.pubMu.Lock()
	j.publish(j.merge.markDone(sh.index, rep.st))
	j.pubMu.Unlock()
}

// settle moves sh to a terminal state and supersedes its live
// attempts. Each superseded sub-job gets a remote cancel, now or once
// its id is reported, and a submit still in flight is cut off. A done
// shard's losing sibling is also cut off at once. On a failed or
// cancelled shard a stream runs on until the backend ends its sub-job,
// so a stopped job ends only once its sub-jobs have.
func (j *cjob) settle(sh *shard, state string, err error) {
	j.mu.Lock()
	sh.state, sh.err = state, err
	j.mu.Unlock()
	j.remaining--
	why := "abort"
	if state == service.StateDone {
		why = "superseded"
	}
	for _, a := range sh.attempts {
		a.superseded = true
		if a.remoteID == "" || state == service.StateDone {
			a.cancel()
		}
		if a.remoteID != "" {
			j.co.spawn(func() { j.co.cancelRemote(j, a.backend, a.remoteID, why) })
		}
	}
}

// fail records a shard failure and aborts the job: with one shard
// unrecoverable the merge can never complete, so every other sub-job
// is stopped rather than graded to no end.
func (j *cjob) fail(sh *shard, err error) {
	j.settle(sh, service.StateFailed, err)
	j.co.logger.WarnContext(j.tctx, "shard failed, aborting job",
		"job", j.id, "shard", sh.index, "err", err)
	j.abort()
}

// abort settles every shard that is not yet terminal as cancelled.
func (j *cjob) abort() {
	for _, sh := range j.shards {
		if !terminalState(sh.state) {
			j.settle(sh, service.StateCancelled, nil)
		}
	}
	j.queue = nil
}

// reclaim cancels the sub-job a cut-off submit may have left running.
// A submit that fails once its attempt is superseded may still have
// been accepted, and then nothing would read or cancel the sub-job.
// Re-sending the same idempotency key returns that sub-job's id, or
// creates one that is cancelled at once. The re-send carries the job's
// trace and, like cancelRemote, lasts until the backend answers or the
// coordinator closes.
func (co *Coordinator) reclaim(j *cjob, att *attempt) {
	b := att.backend
	rid, err := b.cl.Submit(trace.ContextWithSpan(co.ctx, trace.SpanFromContext(j.tctx)), j.subSpec(att))
	if err != nil {
		co.logger.WarnContext(j.tctx, "reclaiming a cut-off sub-job failed", "backend", b.url,
			"job", j.id, "shard", att.sh.index, "err", err)
		return
	}
	co.cancelRemote(j, b, rid, "reclaim")
}

// cancelRemote cancels one sub-job, logging failures with the job's
// trace context: a cancel that silently fails leaves a backend grading
// work nobody will read, and the log line is the only witness. Benign
// refusals — the sub-job already finished or was evicted — are not
// failures.
func (co *Coordinator) cancelRemote(j *cjob, b *backend, rid, why string) {
	if _, err := b.cl.Cancel(co.ctx, rid); err != nil &&
		!errors.Is(err, service.ErrFinished) && !errors.Is(err, service.ErrNotFound) {
		co.logger.WarnContext(j.tctx, "cancelling sub-job failed", "backend", b.url,
			"job", j.id, "remote_id", rid, "reason", why, "err", err)
	}
}

// finalize runs once every shard is terminal and every attempt has
// reported its end: a failed shard fails the job, a cancel cancels it,
// and otherwise the shard results merge into the job's result.
func (co *Coordinator) finalize(ctx context.Context, j *cjob) (*service.JobResult, error) {
	j.merge = nil // no stream feeds it now, and the engine retains j
	var failed error
	cancelled := ctx.Err() != nil
	// The merged result is the job's only retained payload; the
	// per-shard copies would double its memory for no reader.
	results := make([]*service.JobResult, len(j.shards))
	for i, sh := range j.shards {
		switch sh.state {
		case service.StateFailed:
			if failed == nil {
				failed = sh.err
			}
		case service.StateCancelled:
			cancelled = true
		}
		results[i], sh.result = sh.result, nil
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
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ShardStatus, len(j.shards))
	for i, sh := range j.shards {
		out[i] = ShardStatus{
			Index:    sh.index,
			Count:    sh.count,
			RemoteID: sh.remoteID,
			State:    sh.state,
			Retries:  sh.retries,
			Attempts: sh.attemptSeq,
		}
		if sh.backend != nil {
			out[i].Backend = sh.backend.url
		}
		if sh.err != nil {
			out[i].Error = sh.err.Error()
		}
	}
	return out, nil
}

// Stats sums the service counters of every backend that answers one
// sweep, so a dead backend costs one ProbeTimeout in total and
// contributes nothing rather than failing the aggregate. Uptime and
// version are the coordinator's own.
func (co *Coordinator) Stats(ctx context.Context) (service.Stats, error) {
	own := co.svc.Stats()
	out := service.Stats{UptimeSeconds: own.UptimeSeconds, Version: own.Version}
	for _, st := range co.probe(ctx, co.backends) {
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
// (cancel them first for a fast shutdown), then ends the re-probe loop
// and the remote cancels and reclaims still waiting on a backend, waits
// for them, and closes the idle connections of the client New built.
func (co *Coordinator) Close() error {
	co.svc.Close()
	co.stop()
	co.wg.Wait()
	if co.ownHTTP != nil {
		co.ownHTTP.CloseIdleConnections()
	}
	return nil
}
