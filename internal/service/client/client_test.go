package client

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/service"
)

func newServer(t *testing.T) (*Client, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		srv.Close()
	})
	return New(srv.URL, srv.Client()), svc
}

func TestClientSubmitWaitResult(t *testing.T) {
	cl, _ := newServer(t)
	ctx := context.Background()

	id, err := cl.Submit(ctx, service.JobSpec{
		Circuit:  "c17",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 200, Seed: 3}},
		Mode:     "drop",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stream(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	res, err := cl.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "drop" || res.Faults != 22 || res.Detected == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	jobs, err := cl.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs: %v, %d entries", err, len(jobs))
	}
}

func TestClientStream(t *testing.T) {
	cl, _ := newServer(t)
	ctx := context.Background()

	id, err := cl.Submit(ctx, service.JobSpec{
		Circuit:  "c17",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 640, Seed: 9}},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []service.ProgressEvent
	st, err := cl.Stream(ctx, id, func(ev service.ProgressEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone || st.ID != id {
		t.Fatalf("final status %+v", st)
	}
	for _, ev := range events {
		if ev.JobID != id {
			t.Fatalf("foreign event %+v", ev)
		}
	}
}

func TestClientStatsAfterRepeat(t *testing.T) {
	cl, _ := newServer(t)
	ctx := context.Background()
	spec := service.JobSpec{
		Circuit:  "lion",
		Patterns: service.PatternSpec{Exhaustive: true},
		Mode:     "nodrop",
	}
	for i := 0; i < 2; i++ {
		id, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := cl.Stream(ctx, id, nil); err != nil || st.State != service.StateDone {
			t.Fatalf("wait: %v, %+v", err, st)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registry.CircuitHits != 1 || st.Registry.GoodHits != 1 {
		t.Fatalf("cache counters: %+v", st.Registry)
	}
}

func TestClientErrors(t *testing.T) {
	cl, _ := newServer(t)
	ctx := context.Background()
	if _, err := cl.Status(ctx, "j999"); err == nil {
		t.Fatal("unknown job must error")
	}
	if _, err := cl.Result(ctx, "j999"); err == nil {
		t.Fatal("unknown result must error")
	}
	if _, err := cl.Submit(ctx, service.JobSpec{}); err == nil {
		t.Fatal("empty spec must error")
	}
	if _, err := cl.Stream(ctx, "j999", nil); err == nil {
		t.Fatal("unknown stream must error")
	}
}

// TestClientTypedErrors checks that non-2xx responses surface as
// *service.APIError with the machine-readable code, via errors.As.
func TestClientTypedErrors(t *testing.T) {
	cl, _ := newServer(t)
	ctx := context.Background()

	_, err := cl.Status(ctx, "j999")
	var ae *service.APIError
	if !errors.As(err, &ae) || ae.Code != service.CodeNotFound {
		t.Fatalf("status of unknown job: %v (want APIError code not_found)", err)
	}

	_, err = cl.Submit(ctx, service.JobSpec{
		Circuit:  "c17",
		Patterns: service.PatternSpec{Exhaustive: true},
		// Mode deliberately empty: the wire contract rejects it.
	})
	if !errors.As(err, &ae) || ae.Code != service.CodeInvalidRequest {
		t.Fatalf("empty-mode submit: %v (want APIError code invalid_request)", err)
	}

	_, err = cl.Cancel(ctx, "j999")
	if !errors.As(err, &ae) || ae.Code != service.CodeNotFound {
		t.Fatalf("cancel of unknown job: %v (want APIError code not_found)", err)
	}
}

// TestClientCancel cancels a finished job (deterministic) and checks
// the finished conflict comes back typed; the running-cancel path is
// covered end-to-end by the service HTTP tests.
func TestClientCancel(t *testing.T) {
	cl, _ := newServer(t)
	ctx := context.Background()
	id, err := cl.Submit(ctx, service.JobSpec{
		Circuit:  "c17",
		Patterns: service.PatternSpec{Exhaustive: true},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Stream(ctx, id, nil); err != nil || st.State != service.StateDone {
		t.Fatalf("wait: %v, %+v", err, st)
	}
	_, err = cl.Cancel(ctx, id)
	var ae *service.APIError
	if !errors.As(err, &ae) || ae.Code != service.CodeFinished {
		t.Fatalf("cancel finished job: %v (want APIError code finished)", err)
	}
}

// TestClientKeepsConnectionAlive: a client reads every response body to
// its end, so one TCP connection carries a run of grade, atpg and
// adi_order jobs, the status, stats, list and cancel calls, and the
// error responses. A body closed before EOF makes net/http drop the
// connection and dial again.
func TestClientKeepsConnectionAlive(t *testing.T) {
	svc := service.New(service.Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()
	var dials atomic.Int32
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}}
	defer tr.CloseIdleConnections()
	cl := New(srv.URL, &http.Client{Transport: tr})
	ctx := context.Background()

	// Results of a few hundred faults, so that the server streams
	// them in chunks and a decoder stops short of the body's end.
	bench := circuit.BenchString(gen.Generate(gen.Config{Name: "g50", Inputs: 32, Gates: 50}))
	pat := service.PatternSpec{Random: &service.RandomSpec{N: 640, Seed: 3}}
	run := func(spec service.JobSpec) string {
		t.Helper()
		id, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := cl.Stream(ctx, id, nil); err != nil || st.State != service.StateDone {
			t.Fatalf("stream %s: %v, %+v", id, err, st)
		}
		return id
	}
	var last string
	for i := range 15 {
		last = run(service.JobSpec{Bench: bench, Mode: []string{"nodrop", "drop", "ndetect"}[i%3], N: i % 3 / 2 * 4, Patterns: pat})
		if _, err := cl.Result(ctx, last); err != nil {
			t.Fatal(err)
		}
	}
	atpg := run(service.JobSpec{Kind: service.KindAtpg, Bench: bench, Patterns: pat, Order: &service.OrderSpec{Kind: "dynm"}})
	if _, err := cl.ResultAtpg(ctx, atpg); err != nil {
		t.Fatal(err)
	}
	order := run(service.JobSpec{Kind: service.KindADIOrder, Bench: bench, Patterns: pat, Order: &service.OrderSpec{Kind: "dynm"}})
	if _, err := cl.ResultOrder(ctx, order); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Status(ctx, last); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Jobs(ctx); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		func() error { _, err := cl.Cancel(ctx, last); return err }(),
		func() error { _, err := cl.Result(ctx, "j999"); return err }(),
		func() error { _, err := cl.ResultAtpg(ctx, "j999"); return err }(),
		func() error { _, err := cl.Submit(ctx, service.JobSpec{Circuit: "c17", Patterns: pat}); return err }(),
		func() error { _, err := cl.Stream(ctx, "j999", nil); return err }(),
	} {
		var ae *service.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("want an API error, got %v", err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d connections dialled, want 1", n)
	}
}
