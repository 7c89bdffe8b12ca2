package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/service"
)

// TestClusterCallerIdempotencyKey: a caller-supplied idempotency key
// dedupes at the coordinator's engine — the second submit answers with
// the first cluster job instead of fanning out again — and the key is
// consumed rather than forwarded (every sub-job carries a
// coordinator-minted shard key, so backends never collapse distinct
// shards into one sub-job).
func TestClusterCallerIdempotencyKey(t *testing.T) {
	// Each backend holds its sub-job submits until every backend has
	// received one, so every backend pulls a shard whatever the
	// placement order: a c17 shard is so short that one backend could
	// otherwise drain the queue. The hold ends with the test too: a
	// handler that has not read its body never sees the client give up.
	const backends = 2
	var mu sync.Mutex
	waiting := backends
	all := make(chan struct{})
	urls := make([]string, backends)
	svcs := make([]*service.Service, backends)
	for i := range urls {
		svc := service.New(service.Config{MaxConcurrentJobs: 4, Logger: quiet})
		h := svc.Handler()
		var first sync.Once
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				first.Do(func() {
					mu.Lock()
					defer mu.Unlock()
					if waiting--; waiting == 0 {
						close(all)
					}
				})
				select {
				case <-all:
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
		urls[i], svcs[i] = srv.URL, svc
	}
	co, err := New(urls, Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, stop := context.WithTimeout(context.Background(), 20*time.Second)
	defer stop()

	spec := service.JobSpec{
		Circuit:        "c17",
		Mode:           "drop",
		IdempotencyKey: "caller-1",
		Patterns:       service.PatternSpec{Random: &service.RandomSpec{N: 256, Seed: 5}},
	}
	svc := co.Service()
	id1, err := svc.SubmitContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := svc.SubmitContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("caller key did not dedupe: %s vs %s", id1, id2)
	}
	if _, err := svc.Stream(ctx, id1, nil); err != nil {
		svc.Cancel(id1) //nolint:errcheck // frees the held submits so Close returns
		t.Fatalf("stream: %v (a backend never received a sub-job)", err)
	}

	// The fan-out ran exactly once: one sub-job per shard across the
	// backends (the second submit answered from the dedupe map and
	// placed nothing), and every backend pulled at least one shard.
	shardCount := 4 * len(svcs)
	total := 0
	for i, svc := range svcs {
		jobs := svc.Jobs()
		total += len(jobs)
		if len(jobs) == 0 {
			t.Errorf("backend %d pulled no sub-jobs", i)
		}
	}
	if total != shardCount {
		t.Fatalf("cluster placed %d sub-jobs for one logical %d-shard job", total, shardCount)
	}

	// The shard keys are coordinator-minted and distinct per shard.
	shards, err := co.Shards(id1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sh := range shards {
		key := co.shardKey(id1, sh.Index, sh.Count, 0)
		if !strings.HasPrefix(key, "c-"+co.nonce+"-") {
			t.Errorf("shard key %q not scoped to the coordinator nonce", key)
		}
		if seen[key] {
			t.Errorf("duplicate shard key %q", key)
		}
		seen[key] = true
	}
}
