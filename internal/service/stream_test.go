package service_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/service"
	"github.com/eda-go/adifo/internal/service/client"
)

// stalledStream holds every write of a stream response until release
// closes: a consumer that reads nothing until the job has finished. It
// signals opened at the header flush, which the server sends only once
// it holds its subscription.
type stalledStream struct {
	http.ResponseWriter
	opened  func()
	release <-chan struct{}
}

func (w stalledStream) Write(b []byte) (int, error) {
	<-w.release
	return w.ResponseWriter.Write(b)
}

func (w stalledStream) Flush() {
	w.opened()
	<-w.release
	w.ResponseWriter.(http.Flusher).Flush()
}

// registered is a stream context that reports the first time the
// stream waits on it: Stream waits only once its follower is
// registered, so every event published after that reaches it.
type registered struct {
	context.Context
	once *sync.Once
	ch   chan struct{}
}

func (c registered) Done() <-chan struct{} {
	c.once.Do(func() { close(c.ch) })
	return c.Context.Done()
}

// TestStreamIsLossless: a stream that reads nothing until a 100-block
// grade job has finished still receives blocks 0..99 in order and
// then the final status — in process through Stream, and over HTTP
// through client.Stream.
func TestStreamIsLossless(t *testing.T) {
	// One job slot, held by a slow job until both streams are in
	// place, so they see the graded job from its first block.
	s := service.New(service.Config{MaxConcurrentJobs: 1, Logger: obs.Nop()})
	defer s.Close()
	var chain strings.Builder
	fmt.Fprintf(&chain, "INPUT(a)\nINPUT(b)\nOUTPUT(g399)\ng0 = XOR(a, b)\n")
	for i := 1; i < 400; i++ {
		fmt.Fprintf(&chain, "g%d = XOR(g%d, a)\n", i, i-1)
	}
	blocker, err := s.Submit(service.JobSpec{Bench: chain.String(), Name: "chain", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 1 << 16, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 100
	id, err := s.Submit(service.JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 64 * blocks, Seed: 3}}})
	if err != nil {
		t.Fatal(err)
	}

	// The in-process stream blocks inside fn at its first event until
	// the job has finished, so it reads nothing while the job publishes.
	finished := make(chan struct{})
	inProcess := make(chan []service.ProgressEvent, 1)
	ctx := registered{context.Background(), new(sync.Once), make(chan struct{})}
	go func() {
		var events []service.ProgressEvent
		st, err := s.Stream(ctx, id, func(ev service.ProgressEvent) {
			if len(events) == 0 {
				<-finished
			}
			events = append(events, ev)
		})
		if err != nil || st.State != service.StateDone {
			t.Errorf("Stream: %+v, %v", st, err)
		}
		inProcess <- events
	}()
	select {
	case <-ctx.ch:
	case <-time.After(30 * time.Second):
		t.Fatal("the in-process stream never registered")
	}

	opened, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			w = stalledStream{w, func() { once.Do(func() { close(opened) }) }, release}
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	type streamed struct {
		events []service.ProgressEvent
		st     service.JobStatus
		err    error
	}
	httpDone := make(chan streamed, 1)
	go func() {
		var out streamed
		out.st, out.err = client.New(srv.URL, nil).Stream(context.Background(), id, func(ev service.ProgressEvent) {
			out.events = append(out.events, ev)
		})
		httpDone <- out
	}()
	select {
	case <-opened:
	case <-time.After(30 * time.Second):
		t.Fatal("the HTTP stream never opened")
	}

	if _, err := s.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	wait, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	if st, err := s.Stream(wait, id, nil); err != nil || st.State != service.StateDone {
		t.Fatalf("the graded job never finished: %+v, %v", st, err)
	}
	close(finished)
	close(release)

	check := func(how string, events []service.ProgressEvent) {
		t.Helper()
		if len(events) != blocks {
			t.Fatalf("%s: %d events, want %d", how, len(events), blocks)
		}
		for i, ev := range events {
			if ev.Block != i || ev.Blocks != blocks || ev.JobID != id || ev.Kind != service.KindGrade {
				t.Fatalf("%s: event %d is %+v, want block %d of %d of job %s", how, i, ev, i, blocks, id)
			}
		}
	}
	check("Stream", <-inProcess)

	out := <-httpDone
	if out.err != nil || out.st.State != service.StateDone {
		t.Fatalf("client.Stream: %+v, %v", out.st, out.err)
	}
	check("client.Stream", out.events)
}

// parked is a grade body that reports its start on started, then
// holds its pool slot, doing nothing, until its job is cancelled.
type parked struct{ started chan<- struct{} }

func (p parked) Run(ctx context.Context, _ *service.Run) (*service.JobResult, error) {
	select {
	case p.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestEngineStartsNoGoroutine: the engine starts no goroutine besides
// the jobs it runs. New starts none, and a stream of a queued job runs
// on its caller alone.
func TestEngineStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := service.New(service.Config{Logger: obs.Nop()})
	if n := runtime.NumGoroutine() - before; n > 0 {
		t.Fatalf("New started %d goroutines", n)
	}
	s.Close()

	// One slot, held by a job that only waits for its cancel, so the
	// streamed job stays queued and nothing else starts a goroutine.
	started := make(chan struct{}, 1)
	s, err := service.OpenWithGrade(service.Config{MaxConcurrentJobs: 1, Logger: obs.Nop()},
		func(context.Context, service.JobSpec) (service.Body, error) { return parked{started}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := service.JobSpec{Circuit: "c17", Mode: "nodrop", Patterns: service.PatternSpec{Exhaustive: true}}
	holder, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(holder)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Cancel(id)
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the slot holder never started")
	}

	before = runtime.NumGoroutine()
	ctx, stop := context.WithCancel(context.Background())
	watched := registered{ctx, new(sync.Once), make(chan struct{})}
	ended := make(chan error, 1)
	go func() {
		_, err := s.Stream(watched, id, nil)
		ended <- err
	}()
	select {
	case <-watched.ch:
	case <-time.After(30 * time.Second):
		t.Fatal("the stream never registered")
	}
	if n := runtime.NumGoroutine() - before; n > 1 {
		t.Errorf("a stream of a queued job runs %d goroutines besides its caller", n-1)
	}
	stop()
	if err := <-ended; !errors.Is(err, context.Canceled) {
		t.Errorf("stream ended by its context: %v, want context.Canceled", err)
	}
}
