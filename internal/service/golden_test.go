package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"github.com/eda-go/adifo/internal/obs"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The golden files under testdata/golden pin the v1 wire contract
// byte for byte: canonical JSON for job specs, statuses, stream
// events, results and error envelopes. A wire change — renamed field,
// changed default, new required key — fails these tests loudly
// instead of silently breaking old clients. Regenerate deliberately
// with:
//
//	go test ./internal/service -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name)
}

// checkGolden compares got against the named golden file, rewriting
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire bytes changed\n got: %s\nwant: %s", name, got, want)
	}
}

// marshalCanonical renders v the way the test suite pins it: indented
// JSON with a trailing newline, so fixtures are diffable.
func marshalCanonical(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// decodeStrict decodes data into v rejecting unknown fields, exactly
// like the submit handler.
func decodeStrict(t *testing.T, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("decoding: %v", err)
	}
}

// TestGoldenKindlessSpecGradesAsBefore is the backward-compatibility
// contract: a JobSpec written against the original grade-only wire —
// no kind field — must still decode, run as a grade job, and produce
// the exact result bytes pinned before the engine became multi-kind.
func TestGoldenKindlessSpecGradesAsBefore(t *testing.T) {
	specBytes, err := os.ReadFile(goldenPath("jobspec_kindless_v1.json"))
	if err != nil {
		t.Fatalf("missing golden spec: %v", err)
	}
	var spec JobSpec
	decodeStrict(t, specBytes, &spec)
	if NormalizeKind(spec.Kind) != KindGrade {
		t.Fatalf("kind-less spec normalized to %q, want grade", NormalizeKind(spec.Kind))
	}

	s := New(Config{Logger: obs.Nop(), SimWorkers: 4})
	defer s.Close()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(kind-less v1 spec): %v", err)
	}
	st := waitTerminal(t, s, id)
	if st.State != StateDone || st.Kind != KindGrade {
		t.Fatalf("job ended %q kind %q (%s)", st.State, st.Kind, st.Error)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	// Timing is wall-clock and the trace id is random per run; the
	// fixture pins the deterministic payload. omitempty makes the
	// nil'd fields vanish, so the pre-timing bytes still match — the
	// additive-wire guarantee.
	res.Timing = nil
	res.TraceID = ""
	checkGolden(t, "jobresult_grade_v1.json", marshalCanonical(t, res))
}

// TestGoldenSpecShapes: the kind-carrying spec fixtures decode to
// exactly the expected structs and re-encode to the same bytes, so
// both directions of the wire are pinned.
func TestGoldenSpecShapes(t *testing.T) {
	cases := []struct {
		file string
		want JobSpec
	}{
		{
			"jobspec_atpg_v1.json",
			JobSpec{
				Kind:     KindAtpg,
				Circuit:  "c17",
				Patterns: PatternSpec{Random: &RandomSpec{N: 96, Seed: 7}},
				Order:    &OrderSpec{Kind: "dynm"},
				Gen:      &GenSpec{FillSeed: 99, BacktrackLimit: 10},
			},
		},
		{
			"jobspec_adi_order_v1.json",
			JobSpec{
				Kind:     KindADIOrder,
				Bench:    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
				Name:     "toy",
				Patterns: PatternSpec{Exhaustive: true},
				Order:    &OrderSpec{Kind: "0dynm"},
			},
		},
		{
			"jobspec_grade_shard_v1.json",
			JobSpec{
				Kind:       KindGrade,
				Circuit:    "irs1238",
				Patterns:   PatternSpec{Vectors: []string{"0101", "1111"}},
				Mode:       "ndetect",
				N:          3,
				Workers:    2,
				FaultShard: &FaultShard{Index: 1, Count: 4},
			},
		},
	}
	for _, c := range cases {
		checkGolden(t, c.file, marshalCanonical(t, c.want))
		data, err := os.ReadFile(goldenPath(c.file))
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		var got JobSpec
		decodeStrict(t, data, &got)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: decode mismatch\n got %+v\nwant %+v", c.file, got, c.want)
		}
	}
}

// TestGoldenStatusAndStreamShapes pins the JobStatus and ProgressEvent
// encodings, including the multi-kind additions.
func TestGoldenStatusAndStreamShapes(t *testing.T) {
	checkGolden(t, "jobstatus_grade_v1.json", marshalCanonical(t, JobStatus{
		ID: "j1", Kind: KindGrade, State: StateRunning, Circuit: "c17",
		Faults: 22, Vectors: 128, Blocks: 2,
		BlocksDone: 1, VectorsUsed: 64, Detected: 20, Active: 2,
		FaultShard: &FaultShard{Index: 0, Count: 2},
	}))
	checkGolden(t, "jobstatus_atpg_v1.json", marshalCanonical(t, JobStatus{
		ID: "j2", Kind: KindAtpg, State: StateDone, Circuit: "c17",
		Faults: 22, Vectors: 96, Blocks: 2,
		BlocksDone: 2, VectorsUsed: 96, Detected: 22,
		Targets: 22, TargetsDone: 22, Tests: 7,
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
	}))
	checkGolden(t, "progress_event_grade_v1.json", marshalCanonical(t, ProgressEvent{
		JobID: "j1", Kind: KindGrade, State: StateRunning,
		Block: 0, Blocks: 2, VectorsUsed: 64, Detected: 20, Active: 2,
	}))
	checkGolden(t, "progress_event_atpg_v1.json", marshalCanonical(t, ProgressEvent{
		JobID: "j2", Kind: KindAtpg, State: StateRunning,
		Detected: 18, Active: 4, Target: 5, Targets: 22, Tests: 4,
	}))
}

// TestGoldenErrorEnvelopes drives the real HTTP handler into every
// error code and pins status line + envelope bytes. The config is
// fixed (SimWorkers) so messages carrying server bounds are
// deterministic.
func TestGoldenErrorEnvelopes(t *testing.T) {
	s := New(Config{Logger: obs.Nop(), SimWorkers: 4, Kinds: []string{KindGrade}})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	do := func(method, url, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// A done job to provoke "finished" and a cancelled one for
	// "cancelled". The cancelled job is long enough (1024 blocks) that
	// it cannot finish before the cancel reaches it.
	doneID, err := s.Submit(JobSpec{Circuit: "c17", Mode: "drop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, doneID)
	cancelledID, err := s.Submit(JobSpec{Circuit: "c17", Mode: "nodrop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 1 << 16, Seed: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(cancelledID)
	waitTerminal(t, s, cancelledID)
	// A failed job (unknown circuit name resolves at run time).
	failedID, err := s.Submit(JobSpec{Circuit: "no_such_circuit", Mode: "drop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, failedID)

	// The overloaded envelope needs a deterministically full queue: a
	// dedicated one-slot, one-queued-job service whose slot is pinned
	// by a running job, so the bound in the message is fixed. The job
	// queued behind it cannot finish first, which "not_done" needs.
	tight := New(Config{Logger: obs.Nop(), SimWorkers: 1, MaxConcurrentJobs: 1,
		MaxQueuedJobs: 1, Kinds: []string{KindGrade}})
	defer tight.Close()
	tightSrv := httptest.NewServer(tight.Handler())
	defer tightSrv.Close()
	runningID, err := tight.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, tight, runningID, StateRunning)
	queuedID, err := tight.Submit(JobSpec{Circuit: "c17", Mode: "drop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 3}}})
	if err != nil {
		t.Fatal(err)
	}

	type envelope struct {
		Name   string          `json:"name"`
		Status int             `json:"status"`
		Body   json.RawMessage `json:"body"`
	}
	var envelopes []envelope
	record := func(name, method, url, body string) {
		code, raw := do(method, url, body)
		envelopes = append(envelopes, envelope{Name: name, Status: code, Body: json.RawMessage(bytes.TrimSpace(raw))})
	}
	record("invalid_request", http.MethodPost, srv.URL+"/v1/jobs", `{"circuit":"c17","patterns":{"exhaustive":true}}`)
	record("unsupported_kind_unknown", http.MethodPost, srv.URL+"/v1/jobs",
		`{"kind":"mine_bitcoin","circuit":"c17","mode":"drop","patterns":{"exhaustive":true}}`)
	record("unsupported_kind_disabled", http.MethodPost, srv.URL+"/v1/jobs",
		`{"kind":"atpg","circuit":"c17","patterns":{"exhaustive":true},"order":{"kind":"dynm"}}`)
	record("not_found", http.MethodGet, srv.URL+"/v1/jobs/j999", "")
	record("not_done", http.MethodGet, tightSrv.URL+"/v1/jobs/"+queuedID+"/result", "")
	record("cancelled", http.MethodGet, srv.URL+"/v1/jobs/"+cancelledID+"/result", "")
	record("finished", http.MethodDelete, srv.URL+"/v1/jobs/"+doneID, "")
	record("job_failed", http.MethodGet, srv.URL+"/v1/jobs/"+failedID+"/result", "")

	{
		req, err := http.NewRequest(http.MethodPost, tightSrv.URL+"/v1/jobs",
			strings.NewReader(`{"circuit":"c17","mode":"drop","patterns":{"random":{"n":64,"seed":4}}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("overloaded Retry-After = %q, want \"1\"", got)
		}
		envelopes = append(envelopes, envelope{Name: "overloaded", Status: resp.StatusCode,
			Body: json.RawMessage(bytes.TrimSpace(b))})
	}
	tight.Cancel(queuedID)
	tight.Cancel(runningID)

	checkGolden(t, "error_envelopes_v1.json", marshalCanonical(t, envelopes))
}
