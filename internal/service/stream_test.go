package service_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// TestStreamIsLossless: a subscriber that reads nothing until a
// 100-block grade job has finished still receives blocks 0..99 in
// order and then the close — in process through Subscribe, and over
// HTTP through client.Stream.
func TestStreamIsLossless(t *testing.T) {
	// One job slot, held by a slow job until both subscriptions are
	// in place, so they see the graded job from its first block.
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

	ch, unsubscribe, ok := s.Subscribe(id)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer unsubscribe()

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
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := s.Status(id); st.State == service.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the graded job never finished")
		}
	}
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
	var events []service.ProgressEvent
	for ev := range ch {
		events = append(events, ev)
	}
	check("Subscribe", events)

	out := <-httpDone
	if out.err != nil || out.st.State != service.StateDone {
		t.Fatalf("client.Stream: %+v, %v", out.st, out.err)
	}
	check("client.Stream", out.events)
}
