package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/service"
	"github.com/eda-go/adifo/internal/service/client"
)

// quiet suppresses service/coordinator log chatter in tests.
var quiet = obs.Nop()

// scrapeRegistry renders reg as text exposition.
func scrapeRegistry(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// seriesValue sums the sample values of every series whose name (with
// labels) starts with prefix at a name boundary.
func seriesValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		if rest := line[len(prefix):]; rest[0] != ' ' && rest[0] != '{' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("no series matching %q in exposition", prefix)
	}
	return sum
}

// newBackend spins up one in-process adifod-equivalent: a service
// behind a real HTTP server.
func newBackend(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{MaxConcurrentJobs: 4, Logger: quiet})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

func newBackends(t *testing.T, n int) ([]string, []*service.Service) {
	t.Helper()
	urls := make([]string, n)
	svcs := make([]*service.Service, n)
	for i := 0; i < n; i++ {
		srv, svc := newBackend(t)
		urls[i] = srv.URL
		svcs[i] = svc
	}
	return urls, svcs
}

// referenceResult grades spec unsharded on a fresh single backend,
// through the same HTTP+JSON path the cluster uses, and returns the
// result.
func referenceResult(t *testing.T, spec service.JobSpec) *service.JobResult {
	t.Helper()
	srv, _ := newBackend(t)
	cl := client.New(srv.URL, nil)
	ctx := context.Background()
	id, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	st, err := cl.Stream(ctx, id, nil)
	if err != nil {
		t.Fatalf("reference stream: %v", err)
	}
	if st.State != service.StateDone {
		t.Fatalf("reference job %s: %s", st.State, st.Error)
	}
	res, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatalf("reference result: %v", err)
	}
	return res
}

// canonical marshals a result with its job id masked, so results from
// different engines compare bit-for-bit on everything that matters.
func canonical(t *testing.T, r *service.JobResult) string {
	t.Helper()
	cp := *r
	cp.ID = "X"
	cp.Timing = nil // wall-clock, differs between runs by construction
	cp.TraceID = "" // run identity, not payload — differs between runs
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func clusterGrade(t *testing.T, co *Coordinator, spec service.JobSpec) *service.JobResult {
	t.Helper()
	ctx, stop := context.WithTimeout(context.Background(), time.Minute)
	defer stop()
	svc := co.Service()
	id, err := svc.SubmitContext(ctx, spec)
	if err != nil {
		t.Fatalf("cluster submit: %v", err)
	}
	lastBlock := -1
	st, err := svc.Stream(ctx, id, func(ev service.ProgressEvent) {
		if ev.Block != lastBlock+1 {
			t.Errorf("merged stream skipped from block %d to %d", lastBlock, ev.Block)
		}
		if ev.JobID != id || ev.Kind != service.KindGrade {
			t.Errorf("merged event names job %q kind %q, want %q kind %q", ev.JobID, ev.Kind, id, service.KindGrade)
		}
		lastBlock = ev.Block
	})
	if err != nil {
		svc.Cancel(id) //nolint:errcheck // frees held submits so Close returns
		t.Fatalf("cluster stream: %v", err)
	}
	if st.State != service.StateDone {
		t.Fatalf("cluster job %s: %s", st.State, st.Error)
	}
	res, err := svc.Result(id)
	if err != nil {
		t.Fatalf("cluster result: %v", err)
	}
	return res
}

// TestClusterBitIdentical is the acceptance matrix: the cluster-merged
// result over 2, 3 and 4 backends must be bit-identical to a
// single-backend unsharded run in all three modes.
func TestClusterBitIdentical(t *testing.T) {
	specs := []service.JobSpec{
		{Circuit: "c17", Mode: "nodrop",
			Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 320, Seed: 7}}},
		{Circuit: "c17", Mode: "drop",
			Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 320, Seed: 7}}},
		{Circuit: "c17", Mode: "ndetect", N: 3,
			Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 320, Seed: 7}}},
		{Circuit: "lion", Mode: "nodrop",
			Patterns: service.PatternSpec{Exhaustive: true}},
	}
	for _, n := range []int{2, 3, 4} {
		for _, spec := range specs {
			name := fmt.Sprintf("%d-backends/%s-%s", n, spec.Circuit, spec.Mode)
			t.Run(name, func(t *testing.T) {
				want := canonical(t, referenceResult(t, spec))
				urls, _ := newBackends(t, n)
				co, err := New(urls, Options{Logger: quiet})
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close()
				res := clusterGrade(t, co, spec)
				if got := canonical(t, res); got != want {
					t.Fatalf("cluster result diverges from single-node run\n got: %s\nwant: %s", got, want)
				}
				checkServedBytes(t, co, res)
				// The work queue over-partitions: ShardsPerBackend (default
				// 4) shards per healthy backend, and on an all-healthy run
				// every shard completes its single attempt with no
				// speculation.
				shards, err := co.Shards(res.ID)
				if err != nil || len(shards) != 4*n {
					t.Fatalf("shards: %v, %v (want %d)", shards, err, 4*n)
				}
				for _, sh := range shards {
					if sh.State != service.StateDone || sh.Retries != 0 || sh.Attempts != 1 {
						t.Fatalf("shard %+v not cleanly done", sh)
					}
				}
			})
		}
	}
}

// TestClusterDefaultClientKeepsConnections: with no HTTPClient the
// coordinator's own transport keeps an idle connection for every call
// one job holds on a backend, so a backend's dials stay bounded however
// many jobs run; with the default transport's 2 idle connections per
// host, every job dialed again. The bound is over all jobs, not "none
// after job 1", because job 1 need not reach a backend's full
// concurrency, and it leaves room above the in-flight window because a
// call can start just before an earlier call's connection is back in
// the pool.
func TestClusterDefaultClientKeepsConnections(t *testing.T) {
	const backends, jobs = 3, 10
	urls := make([]string, backends)
	dials := make([]atomic.Int32, backends)
	for i := range urls {
		svc := service.New(service.Config{MaxConcurrentJobs: 4, Logger: quiet})
		srv := httptest.NewUnstartedServer(svc.Handler())
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials[i].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		urls[i] = srv.URL
	}
	co, err := New(urls, Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	spec := service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 256, Seed: 1}}}
	for range jobs {
		clusterGrade(t, co, spec)
	}
	limit := int32(3 * co.opts.MaxInFlightPerBackend)
	for i := range dials {
		if n := dials[i].Load(); n > limit {
			t.Errorf("backend %d: %d jobs dialed %d connections, want at most %d", i, jobs, n, limit)
		}
	}
}

// checkServedBytes requires the coordinator's engine to serve the
// merged result, whose faults hold the decoded shard results' names
// and detection lists, as exactly the bytes json.Encoder writes.
func checkServedBytes(t *testing.T, co *Coordinator, res *service.JobResult) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(res); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	co.Service().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+res.ID+"/result", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != want.String() {
		t.Fatalf("served merged result (HTTP %d) differs from json.Encoder's bytes\n got: %.300s\nwant: %.300s",
			rec.Code, rec.Body.Bytes(), want.Bytes())
	}
}

// slowChainBench is a deep XOR chain whose grading spans enough blocks
// to interrupt mid-run.
func slowChainBench() string {
	var b strings.Builder
	const inputs, chain = 16, 400
	for i := 0; i < inputs; i++ {
		fmt.Fprintf(&b, "INPUT(i%d)\n", i)
	}
	fmt.Fprintf(&b, "OUTPUT(g%d)\n", chain-1)
	fmt.Fprintf(&b, "g0 = XOR(i0, i1)\n")
	for i := 1; i < chain; i++ {
		fmt.Fprintf(&b, "g%d = XOR(g%d, i%d)\n", i, i-1, i%inputs)
	}
	return b.String()
}

// dyingBackend speaks just enough of the v1 wire to accept one shard,
// stream one block, and then die for good — the deterministic stand-in
// for a backend killed mid-job.
type dyingBackend struct {
	accepted chan struct{} // closed when the first shard is accepted

	mu      sync.Mutex
	dead    bool
	submits int
}

func newDyingBackend() *dyingBackend {
	return &dyingBackend{accepted: make(chan struct{})}
}

func (d *dyingBackend) isDead() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dead
}

func (d *dyingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.isDead() {
		panic(http.ErrAbortHandler)
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		d.mu.Lock()
		if d.submits == 0 {
			close(d.accepted)
		}
		d.submits++
		d.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id":"z1"}`)
	case strings.HasSuffix(r.URL.Path, "/stream"):
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"job_id":"z1","state":"running","block":0,"blocks":1,"vectors_used":64,"detected":0,"active":1}`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		d.mu.Lock()
		d.dead = true
		d.mu.Unlock()
		panic(http.ErrAbortHandler)
	case r.URL.Path == "/v1/stats":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{}`)
	default:
		panic(http.ErrAbortHandler)
	}
}

// TestClusterBackendDeathMidJob kills one of three backends after it
// has started streaming its shard; the shard must be retried on a
// surviving backend and the merged result must still be bit-identical
// to the single-node run.
func TestClusterBackendDeathMidJob(t *testing.T) {
	spec := service.JobSpec{
		Bench: slowChainBench(), Name: "slow-chain", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 2048, Seed: 5}},
	}
	want := canonical(t, referenceResult(t, spec))

	urls, _ := newBackends(t, 2)
	dying := newDyingBackend()
	dsrv := httptest.NewServer(dying)
	defer dsrv.Close()

	co, err := New(append(urls, dsrv.URL), Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	res := clusterGrade(t, co, spec)
	if got := canonical(t, res); got != want {
		t.Fatalf("result after backend death diverges\n got: %s\nwant: %s", got, want)
	}
	if !dying.isDead() {
		t.Fatal("the dying backend never received its shard")
	}
	shards, err := co.Shards(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, sh := range shards {
		if sh.Backend == dsrv.URL {
			t.Fatalf("shard %d still resides on the dead backend", sh.Index)
		}
		retried += sh.Retries
	}
	if retried == 0 {
		t.Fatal("no shard was retried despite a backend death")
	}

	// The incident must be visible on the observability surface too:
	// the re-placement counter matches the per-shard retry totals, the
	// merged result records when the fan-out ran and what the merge
	// cost, and the engine's terminal counter settled on done.
	exp := scrapeRegistry(t, co.Service().Metrics())
	if got := seriesValue(t, exp, "adifo_cluster_shard_retries_total"); got != float64(retried) {
		t.Errorf("adifo_cluster_shard_retries_total = %v, shards report %d retries", got, retried)
	}
	if got := seriesValue(t, exp, `adifo_jobs_total{kind="grade",status="done"}`); got != 1 {
		t.Errorf(`adifo_jobs_total{kind="grade",status="done"} = %v, want 1`, got)
	}
	if got := seriesValue(t, exp, "adifo_cluster_merge_seconds_count"); got != 1 {
		t.Errorf("adifo_cluster_merge_seconds_count = %v, want 1", got)
	}
	if res.Timing == nil {
		t.Fatal("merged result carries no timing")
	}
	if _, ok := res.Timing.Phases[service.PhaseMerge]; !ok {
		t.Errorf("merged result timing lacks the merge phase: %v", res.Timing.Phases)
	}
	if res.Timing.RunSeconds <= 0 || res.Timing.FinishedAt.IsZero() {
		t.Errorf("merged result timing implausible: %+v", res.Timing)
	}
}

// TestClusterFlappingExcluded marks a backend as flapping after its
// first failure (MaxBackendFailures=1) and checks that the next job is
// sharded over the survivors only.
func TestClusterFlappingExcluded(t *testing.T) {
	spec := service.JobSpec{
		Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 192, Seed: 2}},
	}
	want := canonical(t, referenceResult(t, spec))

	dying := newDyingBackend()
	dsrv := httptest.NewServer(dying)
	defer dsrv.Close()

	// The healthy backends hold their sub-job submits until the dying
	// backend has accepted a shard: a c17 job is so short that it
	// could otherwise end before the dying backend fails, whatever the
	// placement order. The hold ends with the test too: a handler that
	// has not read its body never sees the client give up.
	urls := make([]string, 2)
	for i := range urls {
		svc := service.New(service.Config{MaxConcurrentJobs: 4, Logger: quiet})
		h := svc.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				select {
				case <-dying.accepted:
				case <-r.Context().Done():
					return
				case <-t.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		urls[i] = srv.URL
	}

	co, err := New([]string{urls[0], urls[1], dsrv.URL}, Options{Logger: quiet, MaxBackendFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	if got := canonical(t, clusterGrade(t, co, spec)); got != want {
		t.Fatalf("first job diverges\n got: %s\nwant: %s", got, want)
	}
	if !dying.isDead() {
		t.Fatal("the dying backend never received its shard")
	}

	// The dying backend is now flapping: the next job must be sharded
	// across the two survivors only, without probing timeouts.
	ctx, stop := context.WithTimeout(context.Background(), 20*time.Second)
	defer stop()
	svc := co.Service()
	id, err := svc.SubmitContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stream(ctx, id, nil)
	if err != nil {
		svc.Cancel(id) //nolint:errcheck // lets Close return
		t.Fatalf("second job: %v", err)
	}
	if st.State != service.StateDone {
		t.Fatalf("second job: %+v", st)
	}
	shards, err := co.Shards(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 8 {
		t.Fatalf("second job used %d shards, want 8 (4 per survivor, flapping backend excluded)", len(shards))
	}
	for _, sh := range shards {
		if sh.Backend == dsrv.URL {
			t.Fatalf("shard %d placed on the flapping backend", sh.Index)
		}
	}
	res, err := svc.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonical(t, res); got != want {
		t.Fatalf("second job diverges\n got: %s\nwant: %s", got, want)
	}

	// The second submit skipped the flapping backend without probing
	// it, and that skip lands on its exclusion counter.
	exp := scrapeRegistry(t, svc.Metrics())
	series := `adifo_cluster_backend_exclusions_total{backend="` + dsrv.URL + `"}`
	if got := seriesValue(t, exp, series); got < 1 {
		t.Errorf("%s = %v, want >= 1", series, got)
	}
}

// TestClusterReadmitsRecoveredBackend: a backend that is down when a
// job is submitted and recovers mid-job is re-admitted into that job's
// placement by the re-probe loop.
func TestClusterReadmitsRecoveredBackend(t *testing.T) {
	spec := service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 256, Seed: 9}}}
	want := canonical(t, referenceResult(t, spec))

	// B answers 503 to every request until the test flips it up.
	var up atomic.Bool
	bSubmitted := make(chan struct{})
	var bFirst sync.Once
	bsvc := service.New(service.Config{MaxConcurrentJobs: 4, Logger: quiet})
	bh := bsvc.Handler()
	bsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			bFirst.Do(func() { close(bSubmitted) })
		}
		bh.ServeHTTP(w, r)
	}))
	// A holds its second sub-job submit until B has received one, so
	// the job cannot finish on A alone. The hold ends with the test
	// too: a handler that has not read its body never sees the client
	// give up.
	var aPosts atomic.Int32
	asvc := service.New(service.Config{MaxConcurrentJobs: 4, Logger: quiet})
	ah := asvc.Handler()
	asrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && aPosts.Add(1) == 2 {
			select {
			case <-bSubmitted:
			case <-t.Context().Done():
				return
			}
		}
		ah.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		asrv.Close()
		bsrv.Close()
		asvc.Close()
		bsvc.Close()
	})

	co, err := New([]string{asrv.URL, bsrv.URL}, Options{
		Logger:                quiet,
		MaxInFlightPerBackend: 1,
		ReprobeInterval:       20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, stop := context.WithTimeout(context.Background(), 20*time.Second)
	defer stop()
	svc := co.Service()
	id, err := svc.SubmitContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	up.Store(true)
	st, err := svc.Stream(ctx, id, nil)
	if err != nil {
		svc.Cancel(id) //nolint:errcheck // frees the held submit so Close returns
		t.Fatalf("stream: %v (the recovered backend was never re-admitted)", err)
	}
	if st.State != service.StateDone {
		t.Fatalf("cluster job %s: %s", st.State, st.Error)
	}
	res, err := svc.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonical(t, res); got != want {
		t.Fatalf("result after re-admission diverges\n got: %s\nwant: %s", got, want)
	}
	shards, err := co.Shards(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("job used %d shards, want 4 (cut for the one backend healthy at submit)", len(shards))
	}
	onB := 0
	for _, sh := range shards {
		if sh.Backend == bsrv.URL {
			onB++
		}
	}
	if onB == 0 {
		t.Fatalf("no shard ran on the re-admitted backend: %+v", shards)
	}
}

// TestClusterFailsWhenEveryBackendIsLost: a job whose every backend dies
// mid-job fails with "no healthy backend available" rather than
// waiting for a backend that never comes back.
func TestClusterFailsWhenEveryBackendIsLost(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		srv := httptest.NewServer(newDyingBackend())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	co, err := New(urls, Options{Logger: quiet, MaxBackendFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, stop := context.WithTimeout(context.Background(), 20*time.Second)
	defer stop()
	svc := co.Service()
	id, err := svc.SubmitContext(ctx, service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 256, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stream(ctx, id, nil)
	if err != nil {
		svc.Cancel(id) //nolint:errcheck // lets Close return
		t.Fatalf("stream: %v (the job hung with every backend lost)", err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "no healthy backend available") {
		t.Fatalf("cluster job ended %s (%q), want failed with \"no healthy backend available\"", st.State, st.Error)
	}
}

// TestClusterCancelledCallsKeepBackendsUsable: a submit or a Stats
// call whose caller already gave up fails its probes because of the
// caller, not the backends, so it must not count against them. Three
// such submits would otherwise make every backend flapping under the
// default MaxBackendFailures, and a live submit would then find no
// healthy backend.
func TestClusterCancelledCallsKeepBackendsUsable(t *testing.T) {
	spec := service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 256, Seed: 4}}}
	want := canonical(t, referenceResult(t, spec))
	urls, _ := newBackends(t, 2)
	co, err := New(urls, Options{Logger: quiet, ReprobeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	svc := co.Service()
	for range 3 {
		_, _ = svc.SubmitContext(gone, spec)
	}
	for range 3 {
		_, _ = co.Stats(gone)
	}
	exp := scrapeRegistry(t, svc.Metrics())
	if got := seriesValue(t, exp, "adifo_cluster_probe_seconds_count"); got != 0 {
		t.Errorf("adifo_cluster_probe_seconds_count = %v after calls whose caller gave up, want 0", got)
	}
	if got := seriesValue(t, exp, "adifo_cluster_backend_exclusions_total"); got != 0 {
		t.Errorf("adifo_cluster_backend_exclusions_total = %v after calls whose caller gave up, want 0", got)
	}
	if got := canonical(t, clusterGrade(t, co, spec)); got != want {
		t.Fatalf("live job diverges\n got: %s\nwant: %s", got, want)
	}
}

// TestClusterReprobeLogsTransitions: the re-probe sweep logs a
// backend's health only when it changes. Backends that never failed
// log nothing, and a dead backend logs one "unhealthy" line per
// outage, not one per sweep.
func TestClusterReprobeLogsTransitions(t *testing.T) {
	urls, _ := newBackends(t, 2)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	var logs bytes.Buffer
	co, err := New(append(urls, dead.URL), Options{
		Logger:          obs.NewLogger(&logs, slog.LevelDebug),
		ReprobeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	co.reprobe()
	co.reprobe()
	out := logs.String()
	if strings.Contains(out, "recovered") {
		t.Errorf("backends that never failed logged a recovery:\n%s", out)
	}
	if n := strings.Count(out, `msg="backend unhealthy"`); n != 1 || !strings.Contains(out, dead.URL) {
		t.Errorf("two sweeps over a dead backend logged %d unhealthy lines, want 1 naming %s:\n%s", n, dead.URL, out)
	}
}

// plugBench is slowChainBench behind an AND with a constant 0: no
// fault of the chain ever reaches the output, so a drop-mode grade
// keeps almost every fault active for every block and holds its job
// slot for as many blocks as it is given, at a few bytes per pattern.
func plugBench() string {
	return strings.Replace(slowChainBench(), "OUTPUT(g399)", "OUTPUT(y)", 1) +
		"n0 = NOT(i0)\nz = AND(i0, n0)\ny = AND(z, g399)\n"
}

// TestClusterBackendDrainRetries: a backend cancelling a sub-job on
// its own (a graceful drain, not our fan-out) is a lost shard, not a
// cluster-level cancel — the shard is rerun elsewhere and the merged
// result still matches the single-node run.
func TestClusterBackendDrainRetries(t *testing.T) {
	spec := service.JobSpec{
		Bench: slowChainBench(), Name: "slow-chain", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 8192, Seed: 5}},
	}
	want := canonical(t, referenceResult(t, spec))

	// Backend 1 runs one job at a time, and a plug job holds that slot
	// until the test cancels it, so every sub-job backend 1 accepts
	// waits in its queue.
	urls, _ := newBackends(t, 1)
	drainer := service.New(service.Config{MaxConcurrentJobs: 1, Logger: quiet})
	log := newBackendLog()
	srv := httptest.NewServer(log.wrap(drainer.Handler()))
	t.Cleanup(func() {
		srv.Close()
		drainer.Close()
	})
	plug, err := drainer.Submit(service.JobSpec{
		Bench: plugBench(), Name: "plug", Mode: "drop", Workers: 1,
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 1 << 20, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No speculation: the drained shard's only attempt is on backend 1.
	co, err := New(append(urls, srv.URL), Options{Logger: quiet, StragglerAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	ctx := context.Background()
	wctx, stop := context.WithTimeout(ctx, 30*time.Second)
	defer stop()
	svc := co.Service()
	id, err := svc.SubmitContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel a queued sub-job on backend 1 directly, exactly what its
	// Drain() does on SIGTERM, and then let the rest run.
	select {
	case <-log.submitted:
	case <-wctx.Done():
		t.Fatal("backend 1 never received a sub-job")
	}
	drained := -1
	for _, js := range drainer.Jobs() {
		if js.ID == plug {
			continue
		}
		st, err := drainer.Cancel(js.ID)
		if err != nil || st.State != service.StateCancelled {
			t.Fatalf("backend-side cancel of queued sub-job %s: %+v, %v", js.ID, st, err)
		}
		drained = js.FaultShard.Index
		break
	}
	if drained < 0 {
		t.Fatal("backend 1 holds no sub-job after its first submit")
	}
	if _, err := drainer.Cancel(plug); err != nil {
		t.Fatalf("cancel plug: %v", err)
	}

	st, err := svc.Stream(wctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("cluster job after backend drain: %s (%s), want done", st.State, st.Error)
	}
	res, err := svc.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonical(t, res); got != want {
		t.Fatalf("result after backend drain diverges\n got: %s\nwant: %s", got, want)
	}
	shards, _ := co.Shards(id)
	if shards[drained].Retries == 0 {
		t.Fatalf("drained shard %d was not retried: %+v", drained, shards[drained])
	}
}

// backendLog wraps a backend handler: it signals once the backend has
// served its first sub-job submit and records every sub-job id a
// DELETE arrived for, so a test can wait on both events.
type backendLog struct {
	submitted chan struct{} // closed after the first POST /v1/jobs
	once      sync.Once

	mu      sync.Mutex
	deletes map[string]chan struct{} // closed once a DELETE for the id arrived
}

func newBackendLog() *backendLog {
	return &backendLog{submitted: make(chan struct{}), deletes: map[string]chan struct{}{}}
}

func (l *backendLog) deleted(id string) chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch, ok := l.deletes[id]
	if !ok {
		ch = make(chan struct{})
		l.deletes[id] = ch
	}
	return ch
}

func (l *backendLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			ch := l.deleted(path.Base(r.URL.Path))
			l.mu.Lock()
			select {
			case <-ch:
			default:
				close(ch)
			}
			l.mu.Unlock()
		}
		h.ServeHTTP(w, r)
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			l.once.Do(func() { close(l.submitted) })
		}
	})
}

// TestClusterCancel cancels a cluster job once every backend holds a
// sub-job: each sub-job still live when Cancel returns must receive a
// DELETE, every sub-job must end done or cancelled, and the merged
// stream must end with the cancelled status. A sub-job may finish
// before its cancel lands, so no backend is required to count one.
func TestClusterCancel(t *testing.T) {
	const n = 3
	urls := make([]string, n)
	svcs := make([]*service.Service, n)
	logs := make([]*backendLog, n)
	for i := range urls {
		svc := service.New(service.Config{MaxConcurrentJobs: 4, Logger: quiet})
		logs[i] = newBackendLog()
		srv := httptest.NewServer(logs[i].wrap(svc.Handler()))
		t.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		urls[i], svcs[i] = srv.URL, svc
	}
	co, err := New(urls, Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	ctx := context.Background()
	wctx, stop := context.WithTimeout(ctx, 30*time.Second)
	defer stop()
	csvc := co.Service()
	id, err := csvc.SubmitContext(ctx, service.JobSpec{
		Bench: slowChainBench(), Name: "slow-chain", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 1 << 16, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range logs {
		select {
		case <-l.submitted:
		case <-wctx.Done():
			t.Fatalf("backend %d never received a sub-job", i)
		}
	}
	if _, err := csvc.Cancel(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	live := make([][]string, n) // per backend: sub-jobs not terminal once Cancel returned
	nlive := 0
	for i, svc := range svcs {
		for _, js := range svc.Jobs() {
			if !terminalState(js.State) {
				live[i] = append(live[i], js.ID)
				nlive++
			}
		}
	}
	if nlive == 0 {
		t.Fatal("no sub-job was live at Cancel: nothing exercised the fan-out")
	}

	st, err := csvc.Stream(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateCancelled {
		t.Fatalf("stream of cancelled cluster job ended with %q", st.State)
	}
	if _, err := csvc.Result(id); !errors.Is(err, service.ErrCancelled) {
		t.Fatalf("result of cancelled job: %v, want ErrCancelled", err)
	}
	// Cancel is idempotent; a second cancel reports the state without
	// error.
	if st, err := csvc.Cancel(id); err != nil || st.State != service.StateCancelled {
		t.Fatalf("second cancel: %+v, %v", st, err)
	}

	for i, ids := range live {
		for _, rid := range ids {
			select {
			case <-logs[i].deleted(rid):
			case <-wctx.Done():
				t.Fatalf("backend %d never received the cancel for live sub-job %s", i, rid)
			}
		}
	}
	for i, svc := range svcs {
		for _, js := range svc.Jobs() {
			if _, err := svc.Stream(wctx, js.ID, nil); err != nil {
				t.Fatalf("backend %d sub-job %s never ended: %v", i, js.ID, err)
			}
			if st, _ := svc.Status(js.ID); st.State != service.StateDone && st.State != service.StateCancelled {
				t.Fatalf("backend %d sub-job %s ended %s, want done or cancelled", i, js.ID, st.State)
			}
		}
	}
}

// heldSubmit wraps a backend so that its n-th POST /v1/jobs creates the
// sub-job but holds the response until the client gives up on it — a
// response lost in flight, as the coordinator sees it — or until
// release closes, which delivers it.
type heldSubmit struct {
	h       http.Handler
	n       int32
	posts   atomic.Int32
	held    chan string // receives the held sub-job's id
	release chan struct{}
}

func (hs *heldSubmit) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" || hs.posts.Add(1) != hs.n {
		hs.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	hs.h.ServeHTTP(rec, r)
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		panic(http.ErrAbortHandler)
	}
	hs.held <- resp.ID
	select {
	case <-r.Context().Done():
	case <-hs.release:
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}
}

// TestClusterCancelReclaimsCutOffSubmit cancels a cluster job while the
// backend has accepted a sub-job but the response to its submit is
// still in flight. The coordinator never learned that sub-job's id, yet
// it must not leave it running: the backend must receive a DELETE for
// it and the sub-job must end cancelled.
func TestClusterCancelReclaimsCutOffSubmit(t *testing.T) {
	// One job slot: one sub-job runs while the other queues, and the
	// held one cannot finish before its cancel arrives.
	svc := service.New(service.Config{MaxConcurrentJobs: 1, Logger: quiet})
	hold := &heldSubmit{h: svc.Handler(), n: 2, held: make(chan string, 1), release: make(chan struct{})}
	log := newBackendLog()
	srv := httptest.NewServer(log.wrap(hold))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	// Two shards on one backend: the second POST to arrive is held.
	co, err := New([]string{srv.URL}, Options{Logger: quiet, ShardsPerBackend: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	defer close(hold.release) // before Close: frees a submit nothing cut off

	ctx := context.Background()
	wctx, stop := context.WithTimeout(ctx, 10*time.Second)
	defer stop()
	csvc := co.Service()
	id, err := csvc.SubmitContext(ctx, service.JobSpec{
		Bench: slowChainBench(), Name: "slow-chain", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 1 << 16, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rid string
	select {
	case rid = <-hold.held:
	case <-wctx.Done():
		t.Fatal("the second shard was never submitted")
	}
	if _, err := csvc.Cancel(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	select {
	case <-log.deleted(rid):
	case <-wctx.Done():
		t.Fatalf("sub-job %s, whose submit response was cut off, never received a cancel", rid)
	}
	switch _, err := svc.Stream(wctx, rid, nil); {
	case errors.Is(err, service.ErrNotFound):
		t.Fatalf("backend lost sub-job %s", rid)
	case err != nil:
		t.Fatalf("sub-job %s never ended", rid)
	}
	if st, _ := svc.Status(rid); st.State != service.StateCancelled {
		t.Fatalf("sub-job %s ended %s, want cancelled", rid, st.State)
	}
	if st, err := csvc.Stream(wctx, id, nil); err != nil || st.State != service.StateCancelled {
		t.Fatalf("cluster job: %+v, %v; want cancelled", st, err)
	}
	// Cutting the submit off was the coordinator's own doing, not a
	// failure of the backend.
	if co.backends[0].flapping(1) {
		t.Fatal("the cut-off submit counted as a backend failure")
	}
}

// holdRecord is a slog handler that holds the first record with message
// msg for a while before it returns, and notes when it has returned.
// The hold lets a Close that does not wait for the logging goroutine
// return first; a Close that waits passes whatever the hold's length.
type holdRecord struct {
	msg      string
	returned atomic.Bool
}

func (h *holdRecord) Enabled(context.Context, slog.Level) bool { return true }
func (h *holdRecord) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *holdRecord) WithGroup(string) slog.Handler            { return h }

func (h *holdRecord) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg && !h.returned.Load() {
		time.Sleep(100 * time.Millisecond)
		h.returned.Store(true)
	}
	return nil
}

// TestClusterCloseWaitsForRemoteCancels: Close returns only once the
// remote cancels its jobs started have ended. The backend cancels the
// sub-job it is asked to but never answers the DELETE, so the remote
// cancel waits until Close ends the coordinator's context, then fails
// and logs; Close must not return while that record is still being
// handled.
func TestClusterCloseWaitsForRemoteCancels(t *testing.T) {
	svc := service.New(service.Config{MaxConcurrentJobs: 1, Logger: quiet})
	h := svc.Handler()
	streamed := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodDelete:
			h.ServeHTTP(httptest.NewRecorder(), r)
			<-r.Context().Done()
			return
		case strings.HasSuffix(r.URL.Path, "/stream"):
			once.Do(func() { close(streamed) })
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	logs := &holdRecord{msg: "cancelling sub-job failed"}
	co, err := New([]string{srv.URL}, Options{Logger: slog.New(logs), ShardsPerBackend: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	csvc := co.Service()
	id, err := csvc.SubmitContext(ctx, service.JobSpec{
		Bench: slowChainBench(), Name: "slow-chain", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 1 << 16, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The attempt opens its stream only once its job's loop has taken
	// the sub-job's id, so the cancel below reaches the backend.
	select {
	case <-streamed:
	case <-ctx.Done():
		t.Fatal("the sub-job was never streamed")
	}
	if _, err := csvc.Cancel(id); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st, err := csvc.Stream(ctx, id, nil); err != nil || st.State != service.StateCancelled {
		t.Fatalf("cluster job: %+v, %v; want cancelled", st, err)
	}
	co.Close()
	if !logs.returned.Load() {
		t.Fatal("Close returned before the remote cancel it cut off had ended")
	}
}

// TestClusterSubmitValidation: spec errors surface synchronously, like
// a direct service submit.
func TestClusterSubmitValidation(t *testing.T) {
	urls, _ := newBackends(t, 2)
	co, err := New(urls, Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()
	svc := co.Service()

	if _, err := svc.SubmitContext(ctx, service.JobSpec{Circuit: "c17",
		Patterns: service.PatternSpec{Exhaustive: true}}); err == nil {
		t.Fatal("missing mode must be rejected")
	}
	if _, err := svc.SubmitContext(ctx, service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns:   service.PatternSpec{Exhaustive: true},
		FaultShard: &service.FaultShard{Index: 0, Count: 2}}); err == nil {
		t.Fatal("caller-supplied fault_shard must be rejected")
	}
	if _, err := svc.SubmitContext(ctx, service.JobSpec{Circuit: "c17", Mode: "drop",
		Patterns:       service.PatternSpec{Exhaustive: true},
		StopAtCoverage: 0.5}); err == nil {
		t.Fatal("stop_at_coverage must be rejected on a cluster")
	}

	// No backends at all: every backend down fails the submit.
	down, err := New([]string{"http://127.0.0.1:1"}, Options{Logger: quiet, ProbeTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := down.Service().SubmitContext(ctx, service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Exhaustive: true}}); err == nil {
		t.Fatal("submit with no healthy backends must fail")
	}
}

func TestClusterErrorsContract(t *testing.T) {
	urls, backends := newBackends(t, 2)
	co, err := New(urls, Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()
	svc := co.Service()
	if _, ok := svc.Status("j99"); ok {
		t.Fatal("status of an unknown job found")
	}
	if _, err := svc.Result("j99"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("result: %v, want ErrNotFound", err)
	}
	if _, err := svc.Cancel("j99"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("cancel: %v, want ErrNotFound", err)
	}
	if _, err := co.Shards("j99"); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("shards: %v, want ErrNotFound", err)
	}
	id, err := svc.SubmitContext(ctx, service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Exhaustive: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Result(id); err != nil && !errors.Is(err, service.ErrNotDone) {
		t.Fatalf("result of running job: %v, want nil-or-ErrNotDone", err)
	}
	if st, err := svc.Stream(ctx, id, nil); err != nil || st.State != service.StateDone {
		t.Fatalf("stream: %+v, %v", st, err)
	}
	if _, err := svc.Cancel(id); !errors.Is(err, service.ErrFinished) {
		t.Fatalf("cancel finished: %v, want ErrFinished", err)
	}
	if len(svc.Jobs()) != 1 {
		t.Fatalf("jobs = %d, want 1", len(svc.Jobs()))
	}
	st, err := co.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsDone != 8 { // 4 shards per backend, one attempt each
		t.Fatalf("summed backend stats JobsDone = %d, want 8", st.JobsDone)
	}
	if st.Workers <= 0 {
		t.Fatalf("summed backend stats Workers = %d, want > 0 (backends report their workers)", st.Workers)
	}
	// Every other field is the sum over the backends too, except the
	// coordinator's own uptime and version.
	var want service.Stats
	for _, b := range backends {
		addFields(reflect.ValueOf(&want).Elem(), reflect.ValueOf(b.Stats()))
	}
	if st.Version != obs.Version || st.UptimeSeconds <= 0 {
		t.Errorf("summed stats version %q, uptime %v; want the coordinator's %q and > 0", st.Version, st.UptimeSeconds, obs.Version)
	}
	got := st
	got.Version, got.UptimeSeconds = "", 0
	if got != want {
		t.Errorf("summed stats differ from the sum over the backends\n got: %+v\nwant: %+v", got, want)
	}
}

// addFields adds every integer field of src into dst, recursing into
// nested structs; other fields are left alone.
func addFields(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		switch d.Kind() {
		case reflect.Struct:
			addFields(d, s)
		case reflect.Int:
			d.SetInt(d.Int() + s.Int())
		case reflect.Uint64:
			d.SetUint(d.Uint() + s.Uint())
		}
	}
}

// TestMergeResultsValidation: a broken shard set must error, never
// silently merge wrong.
func TestMergeResultsValidation(t *testing.T) {
	mk := func(i, count, total int) *service.JobResult {
		lo, hi := service.ShardRange(total, i, count)
		r := &service.JobResult{
			Circuit: "c", Fingerprint: "f", Mode: "nodrop",
			Faults: hi - lo, TotalFaults: total, Vectors: 64, VectorsUsed: 64,
			FaultShard: &service.FaultShard{Index: i, Count: count},
			Ndet:       make([]int, 64),
		}
		for f := lo; f < hi; f++ {
			r.PerFault = append(r.PerFault, service.FaultResult{F: f})
		}
		return r
	}
	good := []*service.JobResult{mk(0, 2, 10), mk(1, 2, 10)}
	if m, err := MergeResults("c1", good); err != nil || m.Faults != 10 || m.FaultShard != nil {
		t.Fatalf("good merge: %+v, %v", m, err)
	}
	if _, err := MergeResults("c1", nil); err == nil {
		t.Fatal("empty merge must fail")
	}
	if _, err := MergeResults("c1", []*service.JobResult{mk(0, 2, 10), mk(0, 2, 10)}); err == nil {
		t.Fatal("duplicate shard index must fail")
	}
	if _, err := MergeResults("c1", []*service.JobResult{mk(0, 3, 10), mk(1, 3, 10)}); err == nil {
		t.Fatal("incomplete shard count must fail")
	}
	bad := mk(1, 2, 10)
	bad.Fingerprint = "other"
	if _, err := MergeResults("c1", []*service.JobResult{mk(0, 2, 10), bad}); err == nil {
		t.Fatal("fingerprint mismatch must fail")
	}
	unsharded := mk(0, 1, 10)
	unsharded.FaultShard = nil
	if _, err := MergeResults("c1", []*service.JobResult{unsharded}); err == nil {
		t.Fatal("shardless result must fail")
	}
}

// TestClusterRejectsNonGradeKinds: the coordinator shards grade jobs
// only; atpg and adi_order specs (and unknown kinds) are rejected at
// submit with the typed unsupported-kind error, not silently run on
// one backend with wrong semantics.
func TestClusterRejectsNonGradeKinds(t *testing.T) {
	urls, _ := newBackends(t, 2)
	co, err := New(urls, Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	pat := service.PatternSpec{Random: &service.RandomSpec{N: 16, Seed: 1}}
	for _, spec := range []service.JobSpec{
		{Kind: service.KindAtpg, Circuit: "c17", Patterns: pat, Order: &service.OrderSpec{Kind: "dynm"}},
		{Kind: service.KindADIOrder, Circuit: "c17", Patterns: pat, Order: &service.OrderSpec{Kind: "decr"}},
		{Kind: "mystery", Circuit: "c17", Patterns: pat},
	} {
		if _, err := co.Service().SubmitContext(context.Background(), spec); !errors.Is(err, service.ErrUnsupportedKind) {
			t.Errorf("Submit(kind %q) = %v, want ErrUnsupportedKind", spec.Kind, err)
		}
	}
	// The kind-less default still shards as a grade job.
	id, err := co.Service().SubmitContext(context.Background(), service.JobSpec{Circuit: "c17", Mode: "drop", Patterns: pat})
	if err != nil {
		t.Fatalf("kind-less grade submit: %v", err)
	}
	if st, err := co.Service().Stream(context.Background(), id, nil); err != nil || st.State != service.StateDone {
		t.Fatalf("cluster grade job ended %v, %v", st.State, err)
	}
}
