package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/service"
)

// flakyTransport forwards requests to the real transport but, for the
// first n submit POSTs, swallows the response after the server has
// processed it and reports a transport error instead — the
// acknowledged-but-unobserved failure mode that makes naive retries
// duplicate jobs.
type flakyTransport struct {
	inner http.RoundTripper
	fails atomic.Int32
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/v1/jobs") &&
		f.fails.Add(-1) >= 0 {
		resp.Body.Close()
		return nil, errors.New("flaky: connection reset mid-response")
	}
	return resp, nil
}

// TestClientSubmitRetriesFlakyTransport: a submit whose response is
// lost is retried with the same auto-generated idempotency key, so
// the server deduplicates the retry into the job it already accepted
// — one job, not two.
func TestClientSubmitRetriesFlakyTransport(t *testing.T) {
	svc := service.New(service.Config{Logger: obs.Nop()})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	ft := &flakyTransport{inner: srv.Client().Transport}
	ft.fails.Store(1)
	cl := New(srv.URL, &http.Client{Transport: ft})

	id, err := cl.Submit(context.Background(), service.JobSpec{
		Circuit:  "c17",
		Mode:     "drop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 64, Seed: 1}},
	})
	if err != nil {
		t.Fatalf("submit through flaky transport: %v", err)
	}
	jobs, err := cl.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("server has %d jobs after retried submit, want exactly the one returned (%s): %+v",
			len(jobs), id, jobs)
	}
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.JobsDeduped != 1 {
		t.Errorf("JobsDeduped = %d, want 1 (the retry)", stats.JobsDeduped)
	}
}

// TestClientSubmitGivesUpAfterRetries: a transport that never
// delivers exhausts the attempt budget and surfaces the error.
func TestClientSubmitGivesUpAfterRetries(t *testing.T) {
	svc := service.New(service.Config{Logger: obs.Nop()})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	ft := &flakyTransport{inner: srv.Client().Transport}
	ft.fails.Store(1000)
	cl := New(srv.URL, &http.Client{Transport: ft})
	_, err := cl.Submit(context.Background(), service.JobSpec{
		Circuit:  "c17",
		Mode:     "drop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 64, Seed: 1}},
	})
	if err == nil {
		t.Fatal("submit succeeded through a dead transport")
	}
	// All attempts landed on the server under one key: still one job.
	if jobs, jerr := cl.Jobs(context.Background()); jerr == nil && len(jobs) > 1 {
		t.Errorf("server accumulated %d jobs from one logical submit", len(jobs))
	}
}

// overloadedThenAccept serves 429 overloaded (with Retry-After) for
// the first n submits, then accepts.
func overloadedThenAccept(n int32, retryAfter string) (*atomic.Int32, http.HandlerFunc) {
	var posts atomic.Int32
	return &posts, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if posts.Add(1) <= n {
			w.Header().Set("Retry-After", retryAfter)
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"queue full"}}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j1"}`))
	}
}

// TestClientSubmitHonorsRetryAfter: an overloaded 429 is waited out
// for the server's Retry-After and resubmitted — the transient blip
// never surfaces to the caller.
func TestClientSubmitHonorsRetryAfter(t *testing.T) {
	defer func(u time.Duration) { retryAfterUnit = u }(retryAfterUnit)
	retryAfterUnit = time.Millisecond
	posts, h := overloadedThenAccept(2, "1")
	srv := httptest.NewServer(h)
	defer srv.Close()
	cl := New(srv.URL, srv.Client())
	id, err := cl.Submit(context.Background(), service.JobSpec{Circuit: "c17"})
	if err != nil {
		t.Fatalf("submit through transient overload: %v", err)
	}
	if id != "j1" {
		t.Errorf("id = %q, want j1", id)
	}
	if got := posts.Load(); got != 3 {
		t.Errorf("server saw %d submit attempts, want 3 (two 429s waited out)", got)
	}
}

// TestClientSubmitRetryAfterCapped: a pathological Retry-After cannot
// stall the submit past maxRetryAfterWait per attempt.
func TestClientSubmitRetryAfterCapped(t *testing.T) {
	defer func(u, m time.Duration) { retryAfterUnit, maxRetryAfterWait = u, m }(retryAfterUnit, maxRetryAfterWait)
	retryAfterUnit, maxRetryAfterWait = time.Minute, 5*time.Millisecond
	posts, h := overloadedThenAccept(1, "3600")
	srv := httptest.NewServer(h)
	defer srv.Close()
	cl := New(srv.URL, srv.Client())
	start := time.Now()
	if _, err := cl.Submit(context.Background(), service.JobSpec{Circuit: "c17"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("submit stalled %v on a 3600s Retry-After; cap did not apply", elapsed)
	}
	if got := posts.Load(); got != 2 {
		t.Errorf("server saw %d submit attempts, want 2", got)
	}
}

// TestClientSubmitOverloadedGivesUp: a server that stays overloaded
// exhausts the attempt budget, and the caller gets the typed
// overloaded error with the Retry-After the last 429 carried.
func TestClientSubmitOverloadedGivesUp(t *testing.T) {
	defer func(u time.Duration) { retryAfterUnit = u }(retryAfterUnit)
	retryAfterUnit = time.Millisecond
	posts, h := overloadedThenAccept(1000, "7")
	srv := httptest.NewServer(h)
	defer srv.Close()
	cl := New(srv.URL, srv.Client())
	_, err := cl.Submit(context.Background(), service.JobSpec{Circuit: "c17"})
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err %v is not an APIError", err)
	}
	if apiErr.RetryAfter != 7 {
		t.Errorf("RetryAfter = %d, want 7 (parsed from the header)", apiErr.RetryAfter)
	}
	if got := posts.Load(); got != submitAttempts {
		t.Errorf("server saw %d submit attempts, want %d", got, submitAttempts)
	}
}

// TestClientSubmitNoRetryOnAPIError: non-overload typed refusals
// (validation and friends) are never retried — resubmitting a
// spec-level refusal cannot change the answer.
func TestClientSubmitNoRetryOnAPIError(t *testing.T) {
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid_spec","message":"no such circuit"}}`))
	}))
	defer srv.Close()
	cl := New(srv.URL, srv.Client())
	_, err := cl.Submit(context.Background(), service.JobSpec{Circuit: "nope"})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err %v is not an APIError", err)
	}
	if got := posts.Load(); got != 1 {
		t.Errorf("server saw %d submit attempts, want 1 (no retry on typed errors)", got)
	}
}

// TestClientSubmitKeepsCallerKey: an explicit idempotency key is
// forwarded untouched, not replaced by an auto-generated one.
func TestClientSubmitKeepsCallerKey(t *testing.T) {
	svc := service.New(service.Config{Logger: obs.Nop()})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := New(srv.URL, srv.Client())

	spec := service.JobSpec{
		Circuit:        "c17",
		Mode:           "drop",
		IdempotencyKey: "caller-key",
		Patterns:       service.PatternSpec{Random: &service.RandomSpec{N: 64, Seed: 1}},
	}
	id1, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("caller key did not dedupe: %s vs %s", id1, id2)
	}
}

// TestParseRetryAfter covers both header forms RFC 9110 allows: delta
// seconds and an HTTP-date. Dates convert to ceil'd whole seconds from
// now; the past, zero, and garbage all mean "no wait".
func TestParseRetryAfter(t *testing.T) {
	// now carries a fraction of a second: HTTP-dates have whole-second
	// resolution, so every date delta is fractional and must ceil.
	now := time.Date(2026, 8, 8, 12, 0, 0, 300e6, time.UTC)
	cases := []struct {
		name string
		v    string
		want int
	}{
		{"delta seconds", "7", 7},
		{"zero delta", "0", 0},
		{"negative delta", "-3", 0},
		{"http date ahead ceils", now.Add(30 * time.Second).UTC().Format(http.TimeFormat), 30},
		{"http date fractional ceils", now.Add(2 * time.Second).UTC().Format(http.TimeFormat), 2},
		{"http date past", now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0},
		{"http date now truncates to past", now.UTC().Format(http.TimeFormat), 0},
		{"garbage", "soon", 0},
		{"empty", "", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.v, now); got != tc.want {
			t.Errorf("%s: parseRetryAfter(%q) = %d, want %d", tc.name, tc.v, got, tc.want)
		}
	}
}

// TestClientSubmitHonorsRetryAfterDate: the wait path accepts the
// HTTP-date form end to end, not just the delta-seconds form.
func TestClientSubmitHonorsRetryAfterDate(t *testing.T) {
	defer func(u time.Duration) { retryAfterUnit = u }(retryAfterUnit)
	retryAfterUnit = time.Millisecond
	date := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	hits, h := overloadedThenAccept(1, date)
	srv := httptest.NewServer(h)
	defer srv.Close()
	cl := New(srv.URL, srv.Client())
	id, err := cl.Submit(context.Background(), service.JobSpec{
		Circuit: "c17", Mode: "drop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 16, Seed: 1}},
	})
	if err != nil {
		t.Fatalf("submit through dated 429: %v", err)
	}
	if id == "" || hits.Load() < 2 {
		t.Fatalf("id %q after %d attempts, want a retry after the dated 429", id, hits.Load())
	}
}
