package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/obs/trace"
	"github.com/eda-go/adifo/internal/service"
)

// callerTraceparent is the caller-minted trace context the test
// injects, as an upstream service (or the adifo CLI via a proxy)
// would.
const callerTraceparent = "00-6e25d1a1b2c3d4e5f60718293a4b5c6d-00f067aa0ba902b7-01"

// TestClusterBackendDeathSingleTrace: one cluster grade across three
// backends, one of which dies mid-stream, yields ONE trace under the
// caller's trace id — root, every shard attempt (the fatal one and its
// rerun included) and the merge — visible on the client result, in the
// flight recorder's tree endpoint, on the surviving backends' own
// recorders, and stamped into log lines.
func TestClusterBackendDeathSingleTrace(t *testing.T) {
	spec := service.JobSpec{
		Bench: slowChainBench(), Name: "slow-chain", Mode: "nodrop",
		Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 2048, Seed: 5}},
	}
	urls, backends := newBackends(t, 2)
	dying := &dyingBackend{}
	dsrv := httptest.NewServer(dying)
	defer dsrv.Close()

	var logs bytes.Buffer
	co, err := New(append(urls, dsrv.URL), Options{Logger: obs.NewLogger(&logs, slog.LevelDebug)})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	caller, err := trace.ParseTraceparent(callerTraceparent)
	if err != nil {
		t.Fatal(err)
	}
	tid := caller.TraceID.String()
	ctx := trace.ContextWithRemote(context.Background(), caller)
	svc := co.Service()
	id, err := svc.SubmitContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stream(context.Background(), id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("cluster job after backend death: %s (%s), want done", st.State, st.Error)
	}
	if st.TraceID != tid {
		t.Errorf("terminal status TraceID = %q, want caller's %q", st.TraceID, tid)
	}
	res, err := svc.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != tid {
		t.Errorf("result TraceID = %q, want caller's %q", res.TraceID, tid)
	}

	// The coordinator's recorder holds the whole fan-out as one trace.
	// The root span ends just after the stream closes; poll briefly.
	td := waitTrace(t, svc.Traces(), tid)
	if td.Root != "job.grade" {
		t.Errorf("trace root = %q, want job.grade", td.Root)
	}
	var shardSpans, failedShards, reruns, merges int
	for _, sp := range td.Spans {
		switch sp.Name {
		case "shard":
			shardSpans++
			if sp.Status == "error" {
				failedShards++
			}
			for _, a := range sp.Attrs {
				if a.Key == "retry" && a.Value != "0" {
					reruns++
				}
			}
		case "merge":
			merges++
		}
	}
	if shardSpans < 4 {
		t.Errorf("trace has %d shard spans, want >= 4 (3 placements + the rerun)", shardSpans)
	}
	if failedShards == 0 {
		t.Error("no shard span recorded the backend death as an error")
	}
	if reruns == 0 {
		t.Error("no shard span records a retry attempt")
	}
	if merges != 1 {
		t.Errorf("trace has %d merge spans, want 1", merges)
	}

	// The tree endpoint serves the same trace nested under one root.
	rr := httptest.NewRecorder()
	svc.Traces().Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces/"+tid, nil))
	if rr.Code != 200 {
		t.Fatalf("GET /debug/traces/%s: HTTP %d", tid, rr.Code)
	}
	var tree struct {
		TraceID string            `json:"trace_id"`
		Root    string            `json:"root"`
		Spans   int               `json:"spans"`
		Tree    []json.RawMessage `json:"tree"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &tree); err != nil {
		t.Fatalf("tree endpoint returned unparseable JSON: %v", err)
	}
	if tree.TraceID != tid || tree.Root != "job.grade" || len(tree.Tree) != 1 {
		t.Errorf("tree = {trace_id %q, root %q, %d roots}, want {%q, job.grade, 1}",
			tree.TraceID, tree.Root, len(tree.Tree), tid)
	}
	if tree.Spans != len(td.Spans) {
		t.Errorf("tree span count %d != trace span count %d", tree.Spans, len(td.Spans))
	}

	// Both surviving backends recorded their sub-jobs under the same
	// trace id — the context crossed the wire.
	for _, b := range backends {
		waitTrace(t, b.Traces(), tid)
	}

	// The coordinator's own log lines carry the trace id — one grep
	// correlates logs with the recorder.
	if !strings.Contains(logs.String(), "trace_id="+tid) {
		t.Errorf("coordinator logs carry no trace_id=%s:\n%s", tid, logs.String())
	}
}

// waitTrace polls rec until it has completed trace tid: an engine ends
// a job's root span just after the job's stream closes.
func waitTrace(t *testing.T, rec *trace.Recorder, tid string) *trace.TraceData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if td, ok := rec.Trace(tid); ok {
			return td
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorder never completed trace %s", tid)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
