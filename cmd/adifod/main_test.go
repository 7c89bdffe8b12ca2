package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"

	"github.com/eda-go/adifo"
	"github.com/eda-go/adifo/internal/obs"
)

// slowChainBench is a deep XOR chain whose grading spans enough
// 64-pattern blocks to interrupt mid-run.
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

// TestServeGracefulShutdown drives serve through the full signal path:
// a running job is cancelled at its next block barrier, its stream
// ends with the terminal cancelled status, a submission that arrives
// during the drain is rejected with the typed unavailable envelope,
// and serve returns within the grace deadline.
func TestServeGracefulShutdown(t *testing.T) {
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, signalArrives := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ctx, ln, g, 30*time.Second, obs.Nop()) }()

	base := "http://" + ln.Addr().String()
	rg := adifo.NewRemoteGrader(base, nil)
	id, err := rg.Submit(context.Background(), adifo.JobSpec{
		Bench: slowChainBench(), Name: "slow-chain", Mode: "nodrop",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 1 << 16, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Keep a stream open across the shutdown: it must end with the
	// terminal cancelled status, not an aborted connection.
	firstEvent := make(chan struct{})
	var once bool
	streamDone := make(chan adifo.JobStatus, 1)
	streamErr := make(chan error, 1)
	go func() {
		st, err := rg.Stream(context.Background(), id, func(adifo.ProgressEvent) {
			if !once {
				once = true
				close(firstEvent)
			}
		})
		streamErr <- err
		streamDone <- st
	}()
	select {
	case <-firstEvent:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started streaming")
	}

	// A submission is in the server's handler before the signal: the
	// handler reads its body from a pipe the test holds. With
	// "Expect: 100-continue" the server answers 100 on the handler's
	// first body read, so that answer shows the handler is running.
	// Shutdown then waits for this active request instead of closing
	// the listener under it.
	body, sendBody := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Expect", "100-continue")
	inHandler := make(chan struct{})
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		Got100Continue: func() { close(inHandler) },
	}))
	tr := &http.Transport{ExpectContinueTimeout: time.Minute}
	defer tr.CloseIdleConnections()
	submitted := make(chan *http.Response, 1)
	submitErr := make(chan error, 1)
	go func() {
		resp, err := (&http.Client{Transport: tr}).Do(req)
		submitErr <- err
		submitted <- resp
	}()
	select {
	case <-inHandler:
	case err := <-submitErr:
		t.Fatalf("submit before the signal: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("submit never reached the handler")
	}

	signalArrives()

	if err := <-streamErr; err != nil {
		t.Fatalf("stream across shutdown: %v", err)
	}
	if st := <-streamDone; st.State != adifo.JobCancelled {
		t.Fatalf("stream ended with state %q, want %q", st.State, adifo.JobCancelled)
	}

	// The running job has been cancelled, so the drain has begun: the
	// held submission is rejected with the typed envelope.
	spec, err := json.Marshal(adifo.JobSpec{
		Circuit: "c17", Mode: "nodrop",
		Patterns: adifo.PatternSpec{Exhaustive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		sendBody.Write(spec)
		sendBody.Close()
	}()
	if err := <-submitErr; err != nil {
		t.Fatalf("submit during drain: %v", err)
	}
	resp := <-submitted
	defer resp.Body.Close()
	var env struct {
		Error adifo.APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("submit during drain: HTTP %d, envelope: %v", resp.StatusCode, err)
	}
	if env.Error.Code != "unavailable" {
		t.Fatalf("submit during drain: HTTP %d %v, want APIError unavailable", resp.StatusCode, &env.Error)
	}
	if !errors.Is(&env.Error, adifo.ErrGraderDraining) {
		t.Fatalf("submit during drain: %v must match ErrGraderDraining", &env.Error)
	}

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after drain")
	}
}

// TestServeStopsOnListenerError: serve returns the server error when
// the listener dies without a signal.
func TestServeStopsOnListenerError(t *testing.T) {
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(context.Background(), ln, g, time.Second, obs.Nop()) }()
	time.Sleep(50 * time.Millisecond)
	ln.Close()
	select {
	case err := <-serveDone:
		if err == nil {
			t.Fatal("serve returned nil after listener death")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not notice the dead listener")
	}
}

// TestParseKinds validates the -kinds flag grammar and that a
// restricted server actually rejects foreign kinds with the typed
// envelope while serving its own.
func TestParseKinds(t *testing.T) {
	if ks, err := parseKinds(""); err != nil || ks != nil {
		t.Fatalf("parseKinds(\"\") = %v, %v", ks, err)
	}
	if ks, err := parseKinds("grade, atpg"); err != nil || len(ks) != 2 {
		t.Fatalf("parseKinds(\"grade, atpg\") = %v, %v", ks, err)
	}
	if _, err := parseKinds("grade,bogus"); err == nil {
		t.Fatal("parseKinds accepted an unknown kind")
	}

	g := adifo.NewLocalGrader(adifo.GraderConfig{Kinds: []string{adifo.KindADIOrder}})
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	ctx := context.Background()
	_, err := adifo.NewRemoteGrader(srv.URL, nil).Submit(ctx, adifo.JobSpec{
		Circuit: "c17", Mode: "drop",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 16, Seed: 1}},
	})
	if !errors.Is(err, adifo.ErrUnsupportedKind) {
		t.Fatalf("grade submit to adi_order-only server = %v, want ErrUnsupportedKind", err)
	}
	or := adifo.NewRemoteOrderer(srv.URL, nil)
	id, err := or.Submit(ctx, adifo.JobSpec{
		Circuit:  "c17",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 64, Seed: 1}},
		Order:    &adifo.OrderSpec{Kind: "decr"},
	})
	if err != nil {
		t.Fatalf("adi_order submit on its own server: %v", err)
	}
	if st, err := or.Stream(ctx, id, nil); err != nil || st.State != adifo.JobDone {
		t.Fatalf("adi_order job ended %v, %v", st.State, err)
	}
}

func TestParseTenantLimits(t *testing.T) {
	if m, err := parseTenantLimits(""); err != nil || m != nil {
		t.Fatalf("parseTenantLimits(\"\") = %v, %v", m, err)
	}
	m, err := parseTenantLimits("alice=3:100, bob=1:10, carol=2")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]adifo.TenantLimit{
		"alice": {Weight: 3, MaxQueued: 100},
		"bob":   {Weight: 1, MaxQueued: 10},
		"carol": {Weight: 2},
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(m), len(want))
	}
	for name, tl := range want {
		if m[name] != tl {
			t.Errorf("tenant %s = %+v, want %+v", name, m[name], tl)
		}
	}
	for _, bad := range []string{
		"alice", "alice=", "alice=0", "alice=-1", "=3", "alice=3:0",
		"alice=3:x", "alice=3,alice=1",
	} {
		if _, err := parseTenantLimits(bad); err == nil {
			t.Errorf("parseTenantLimits(%q) accepted, want error", bad)
		}
	}
}
