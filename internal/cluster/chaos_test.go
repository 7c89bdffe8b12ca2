package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/service"
)

// stragglerProxy fronts a healthy backend and slows only the stream
// endpoint, leaving probes, submits, cancels and result fetches at
// full speed — so the backend looks perfectly healthy to the
// coordinator and only its shard work drags. Stream requests come in
// two straggler shapes:
//
//   - stall (odd-numbered streams, when stall > 0): no bytes at all
//     until p.stall — the attempt shows zero progress past the
//     straggler threshold, like a sub-job stuck in a backlogged
//     backend's queue;
//   - hold (every other stream): every line is forwarded immediately,
//     but after the backend closes the stream the proxy keeps the
//     connection open for p.hold — the attempt can never finish
//     before the hold expires, like a slowly running sub-job.
//     (Sub-jobs routinely finish before their stream attaches, so a
//     per-line delay cannot fake a slow-running attempt; pinning the
//     EOF can.)
//
// Speculation rescues both shapes.
type stragglerProxy struct {
	backend string
	hold    time.Duration
	stall   time.Duration

	mu      sync.Mutex
	streams int
}

func (p *stragglerProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	url := p.backend + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)

	if !strings.HasSuffix(r.URL.Path, "/stream") || resp.StatusCode != http.StatusOK {
		io.Copy(w, resp.Body) //nolint:errcheck // best-effort proxy
		return
	}
	p.mu.Lock()
	n := p.streams
	p.streams++
	p.mu.Unlock()
	fl, _ := w.(http.Flusher)
	fl.Flush()

	if p.stall > 0 && n%2 == 1 {
		select {
		case <-time.After(p.stall):
		case <-r.Context().Done():
			return
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		w.Write(sc.Bytes())   //nolint:errcheck
		w.Write([]byte{'\n'}) //nolint:errcheck
		fl.Flush()
	}
	// Backend finished; pin the stream open so the attempt stays
	// "running" from the coordinator's point of view.
	select {
	case <-time.After(p.hold):
	case <-r.Context().Done():
	}
}

// TestClusterStragglerChaos is the tail-latency acceptance test: a
// 3-backend cluster where one backend's streams stall or never close
// must finish well under the straggler-bound wall clock, by
// speculatively duplicating the stalled and the held shards — and the
// merged result must stay bit-identical to an unsharded run in all
// three drop modes.
func TestClusterStragglerChaos(t *testing.T) {
	fastURLs, _ := newBackends(t, 2)
	slowURL, _ := newBackend(t)
	proxy := &stragglerProxy{
		backend: slowURL.URL,
		hold:    2 * time.Second,
		stall:   30 * time.Second,
	}
	psrv := httptest.NewServer(proxy)
	t.Cleanup(psrv.Close)

	urls := append(append([]string{}, fastURLs...), psrv.URL)
	co, err := New(urls, Options{
		Logger:         quiet,
		StragglerAfter: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Under the race detector simulation is ~10x slower; give the
	// straggler-rescue machinery a proportionally wider (but still
	// sub-stall) wall-clock budget.
	bound := 10 * time.Second
	if raceEnabled {
		bound = 25 * time.Second
	}
	for _, mode := range []string{"nodrop", "drop", "ndetect"} {
		spec := service.JobSpec{
			Bench: slowChainBench(), Name: "slow-chain", Mode: mode,
			Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 2048, Seed: 11}},
		}
		if mode == "ndetect" {
			spec.N = 3
		}
		want := canonical(t, referenceResult(t, spec))
		start := time.Now()
		res := clusterGrade(t, co, spec)
		elapsed := time.Since(start)
		if got := canonical(t, res); got != want {
			t.Fatalf("mode %s: straggler run diverges from single-node run\n got: %s\nwant: %s", mode, got, want)
		}
		// The straggler alone would hold the job for proxy.stall (30s)
		// on its stalled shards; speculation must beat that bound by a
		// wide margin.
		if elapsed > bound {
			t.Fatalf("mode %s: straggler run took %s, want well under the %s stall bound", mode, elapsed, proxy.stall)
		}
	}

	exp := scrapeRegistry(t, co.Service().Metrics())
	if got := seriesValue(t, exp, "adifo_cluster_shards_speculated_total"); got < 1 {
		t.Errorf("shards_speculated_total = %v, want >= 1 (lagging shards must be duplicated)", got)
	}
	// Whether a speculative duplicate wins here is a scheduling race
	// between two attempts of comparable speed; the deterministic win
	// (and its counter) is asserted in TestClusterSpeculationLoserCancelled.
}

// TestClusterSpeculationLoserCancelled pins down the speculation
// happy path: with per-backend in-flight capped at 1, the rescue for a
// shard whose stream never closes is a speculative duplicate on the
// fast backend. The duplicate must win (the original cannot finish
// before the proxy's hold expires), the win counter must tick, and the
// losing attempt must be superseded and its sub-job reaped on the
// straggler.
func TestClusterSpeculationLoserCancelled(t *testing.T) {
	fastURLs, _ := newBackends(t, 1)
	slowURL, slowSvc := newBackend(t)
	// The hold must outlast the fast backend grading every other shard
	// serially plus one duplicate re-run, so the duplicate always wins.
	hold := 6 * time.Second
	if raceEnabled {
		hold = 30 * time.Second
	}
	proxy := &stragglerProxy{
		backend: slowURL.URL,
		hold:    hold,
	}
	psrv := httptest.NewServer(proxy)
	t.Cleanup(psrv.Close)

	co, err := New([]string{fastURLs[0], psrv.URL}, Options{
		Logger:                quiet,
		StragglerAfter:        time.Second,
		ShardsPerBackend:      2,
		MaxInFlightPerBackend: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	spec := service.JobSpec{
		Bench: slowChainBench(), Name: "slow-chain", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 1024, Seed: 3}},
	}
	want := canonical(t, referenceResult(t, spec))
	if got := canonical(t, clusterGrade(t, co, spec)); got != want {
		t.Fatalf("straggler run diverges\n got: %s\nwant: %s", got, want)
	}

	exp := scrapeRegistry(t, co.Service().Metrics())
	if got := seriesValue(t, exp, "adifo_cluster_shards_speculated_total"); got < 1 {
		t.Errorf("shards_speculated_total = %v, want >= 1", got)
	}
	if got := seriesValue(t, exp, "adifo_cluster_speculation_wins_total"); got < 1 {
		t.Errorf("speculation_wins_total = %v, want >= 1 (the held original cannot beat a fast duplicate)", got)
	}

	// Every sub-job on the straggler must reach a terminal state — the
	// cancel fan-out for superseded attempts reaps the losers. (Jobs
	// that finished on the backend before the cancel landed count as
	// done; nothing may still be running.)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := slowSvc.Stats()
		if st.JobsRunning == 0 && st.JobsQueued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("straggler still has %d running / %d queued sub-jobs after the cluster job finished",
				st.JobsRunning, st.JobsQueued)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// liarProxy fronts a healthy backend and opens every progress stream
// with one event that claims block 1,000,000 of a one-block job, then
// forwards the backend's stream. Every other call passes through.
type liarProxy struct {
	backend string

	mu   sync.Mutex
	lies int
}

func (p *liarProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, p.backend+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if strings.HasSuffix(r.URL.Path, "/stream") && resp.StatusCode == http.StatusOK {
		p.mu.Lock()
		p.lies++
		p.mu.Unlock()
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/stream")
		fmt.Fprintf(w, `{"job_id":%q,"kind":"grade","state":"running","block":1000000,"blocks":1,"vectors_used":64,"detected":1,"active":0}`+"\n", id)
		w.(http.Flusher).Flush()
	}
	io.Copy(w, resp.Body) //nolint:errcheck // best-effort proxy
}

// TestClusterRefusesOutOfBoundsProgress: one of three backends claims
// block 1,000,000 of a one-block job at the start of every stream. Each
// such attempt ends as a transport failure would and its shard reruns
// elsewhere, so the job ends done and bit-identical, and the coordinator
// allocates a bounded amount on the way (the unbounded merge gap-filled
// a million blocks per lie).
func TestClusterRefusesOutOfBoundsProgress(t *testing.T) {
	spec := service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 64, Seed: 7}}}
	want := canonical(t, referenceResult(t, spec))
	urls, _ := newBackends(t, 2)
	honest, _ := newBackend(t)
	proxy := &liarProxy{backend: honest.URL}
	psrv := httptest.NewServer(proxy)
	t.Cleanup(psrv.Close)
	co, err := New(append(urls, psrv.URL), Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := clusterGrade(t, co, spec)
	runtime.ReadMemStats(&after)
	if got := canonical(t, res); got != want {
		t.Fatalf("result diverges from the single-node run\n got: %s\nwant: %s", got, want)
	}
	// One lie gap-filled a million blocks of 24 bytes each, and merged
	// as many events, before the merge was bounded.
	const bound = 32 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("the job allocated %d MB, bound %d MB", grew>>20, bound>>20)
	}
	proxy.mu.Lock()
	lies := proxy.lies
	proxy.mu.Unlock()
	if lies == 0 {
		t.Fatal("no stream passed the lying proxy")
	}
	shards, err := co.Shards(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	retried := 0
	for _, sh := range shards {
		if sh.Backend == psrv.URL {
			t.Fatalf("shard %d was settled by the lying backend", sh.Index)
		}
		retried += sh.Retries
	}
	t.Logf("%d lying streams, %d shard retries, %d KB allocated", lies, retried, (after.TotalAlloc-before.TotalAlloc)>>10)
	if retried < lies {
		t.Fatalf("%d shard retries for %d lying streams", retried, lies)
	}
}
