package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
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
	ctx := context.Background()
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
				// The work queue over-partitions: ShardsPerBackend (default
				// 4) shards per healthy backend, and on an all-healthy run
				// every shard completes its single attempt with no steals
				// or speculation.
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
	// backend has accepted a shard: a c17 job is so short that they
	// could otherwise drain the whole queue before its dispatch loop
	// claims one, and it would never fail.
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
	svc := co.Service()
	id, err := svc.SubmitContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := svc.Stream(context.Background(), id, nil); err != nil || st.State != service.StateDone {
		t.Fatalf("second job: %+v, %v", st, err)
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

	// Every skip of the flapping backend — during placement and during
	// probing — lands on its exclusion counter.
	exp := scrapeRegistry(t, svc.Metrics())
	series := `adifo_cluster_backend_exclusions_total{backend="` + dsrv.URL + `"}`
	if got := seriesValue(t, exp, series); got < 1 {
		t.Errorf("%s = %v, want >= 1", series, got)
	}
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

	urls, svcs := newBackends(t, 2)
	co, err := New(urls, Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	ctx := context.Background()
	svc := co.Service()
	id, err := svc.SubmitContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel a sub-job on backend 1 directly, exactly what its Drain()
	// would do on SIGTERM. Look for it on the backend itself: under
	// load the coordinator can learn a sub-job's id only once the
	// sub-job is done.
	drained := -1
	deadline := time.Now().Add(5 * time.Second)
	for drained < 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shard ran on backend 1")
		}
		for _, js := range svcs[1].Jobs() {
			if js.State != service.StateRunning {
				continue
			}
			if _, err := svcs[1].Cancel(js.ID); err != nil {
				// The sub-job can finish between the Jobs snapshot and
				// the cancel — small shards are quick. Try the next
				// running one.
				if errors.Is(err, service.ErrFinished) || errors.Is(err, service.ErrNotFound) {
					continue
				}
				t.Fatalf("backend-side cancel: %v", err)
			}
			// A cancel that lands in the last block lets it finish.
			if st, err := svcs[1].Stream(ctx, js.ID, nil); err != nil || st.State != service.StateCancelled {
				continue
			}
			drained = js.FaultShard.Index
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	st, err := svc.Stream(ctx, id, nil)
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
			ch, unsubscribe, _ := svc.Subscribe(js.ID)
			for open := true; open; {
				select {
				case _, open = <-ch:
				case <-wctx.Done():
					t.Fatalf("backend %d sub-job %s never ended", i, js.ID)
				}
			}
			unsubscribe()
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
	ch, unsubscribe, ok := svc.Subscribe(rid)
	if !ok {
		t.Fatalf("backend lost sub-job %s", rid)
	}
	defer unsubscribe()
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-wctx.Done():
			t.Fatalf("sub-job %s never ended", rid)
		}
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
		t.Fatalf("summed backend stats Workers = %d, want > 0 (capacity hints feed placement)", st.Workers)
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
