package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"github.com/eda-go/adifo/internal/obs"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

func postJob(t *testing.T, srv *httptest.Server, spec JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func pollDone(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, srv.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status: HTTP %d", code)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck: %+v", id, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPEndToEnd is the acceptance flow: POST a .bench netlist plus
// a pattern set, poll the job, retrieve per-fault detection sets and
// ndet counts, and check them against a direct library run; then
// resubmit the identical request and verify the registry cache hits
// via the exposed counters.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := JobSpec{
		Bench:    benchdata.C17,
		Name:     "c17-inline",
		Patterns: PatternSpec{Random: &RandomSpec{N: 300, Seed: 42}},
		Mode:     "nodrop",
	}
	id := postJob(t, srv, spec)
	if st := pollDone(t, srv, id); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}

	var res JobResult
	if code := getJSON(t, srv.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}

	// Direct library run on the same inputs.
	c, err := circuit.ParseBench("c17-inline", strings.NewReader(benchdata.C17))
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 300, prng.New(42))
	want := fsim.Run(fl, ps, fsim.Options{Mode: fsim.NoDrop})

	if res.Faults != fl.Len() || res.Detected != want.DetectedCount() || res.VectorsUsed != want.VectorsUsed {
		t.Fatalf("summary mismatch: %+v", res)
	}
	for u := range want.Ndet {
		if res.Ndet[u] != want.Ndet[u] {
			t.Fatalf("ndet(%d) = %d, want %d", u, res.Ndet[u], want.Ndet[u])
		}
	}
	for fi := range fl.Faults {
		wantIdx := want.Det[fi].AppendIndices(nil)
		got := res.PerFault[fi].Det
		if len(got) != len(wantIdx) {
			t.Fatalf("fault %d: detection set size %d, want %d", fi, len(got), len(wantIdx))
		}
		for k := range wantIdx {
			if got[k] != wantIdx[k] {
				t.Fatalf("fault %d: det[%d] = %d, want %d", fi, k, got[k], wantIdx[k])
			}
		}
	}

	// Repeat submission of the identical request: both caches must hit.
	var before, after Stats
	getJSON(t, srv.URL+"/v1/stats", &before)
	id2 := postJob(t, srv, spec)
	if st := pollDone(t, srv, id2); st.State != StateDone {
		t.Fatalf("repeat job failed: %s", st.Error)
	}
	getJSON(t, srv.URL+"/v1/stats", &after)
	if after.Registry.CircuitHits != before.Registry.CircuitHits+1 {
		t.Fatalf("circuit cache hits %d -> %d, want +1", before.Registry.CircuitHits, after.Registry.CircuitHits)
	}
	if after.Registry.GoodHits != before.Registry.GoodHits+1 {
		t.Fatalf("good cache hits %d -> %d, want +1", before.Registry.GoodHits, after.Registry.GoodHits)
	}
	if after.Registry.CircuitMisses != before.Registry.CircuitMisses {
		t.Fatalf("unexpected circuit miss on repeat submission")
	}

	// Both jobs land on identical results.
	var res2 JobResult
	getJSON(t, srv.URL+"/v1/jobs/"+id2+"/result", &res2)
	if res2.Detected != res.Detected || res2.Fingerprint != res.Fingerprint {
		t.Fatalf("repeat run diverged: %+v vs %+v", res2, res)
	}
}

func TestHTTPStream(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id := postJob(t, srv, JobSpec{
		Circuit:  "c17",
		Patterns: PatternSpec{Random: &RandomSpec{N: 640, Seed: 5}},
		Mode:     "nodrop",
	})
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	// The last line is the terminal status.
	var st JobStatus
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &st); err != nil {
		t.Fatalf("final line %q: %v", lines[len(lines)-1], err)
	}
	if st.ID != id || st.State != StateDone {
		t.Fatalf("final status %+v", st)
	}
	// Preceding lines are progress events.
	for _, line := range lines[:len(lines)-1] {
		var ev ProgressEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.JobID != id {
			t.Fatalf("bad progress line %q (%v)", line, err)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if code := getJSON(t, srv.URL+"/v1/jobs/j999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status: HTTP %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/j999/result", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job result: HTTP %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/j999/stream", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job stream: HTTP %d", code)
	}

	// Malformed submissions are rejected with 400.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"circuit":"c17"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing patterns: HTTP %d", resp.StatusCode)
	}

	// A job that fails during resolution reports 422 on result.
	id := postJob(t, srv, JobSpec{
		Circuit:  "no-such-circuit",
		Patterns: PatternSpec{Random: &RandomSpec{N: 8, Seed: 1}},
		Mode:     "nodrop",
	})
	if st := pollDone(t, srv, id); st.State != StateFailed {
		t.Fatalf("want failed, got %+v", st)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+id+"/result", nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("failed job result: HTTP %d", code)
	}

	// Health and list endpoints respond.
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	var jobs []JobStatus
	if code := getJSON(t, srv.URL+"/v1/jobs", &jobs); code != http.StatusOK || len(jobs) == 0 {
		t.Fatalf("list: HTTP %d, %d jobs", code, len(jobs))
	}
}

// decodeEnvelope reads the v1 error envelope off a response.
func decodeEnvelope(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Err APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response is not the error envelope: %v", err)
	}
	if env.Err.Code == "" || env.Err.Message == "" {
		t.Fatalf("incomplete envelope: %+v", env.Err)
	}
	return env.Err
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPErrorEnvelope checks that every error path speaks the typed
// {"error": {"code", "message"}} contract.
func TestHTTPErrorEnvelope(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != CodeNotFound {
		t.Fatalf("unknown job code %q, want %q", ae.Code, CodeNotFound)
	}

	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"circuit":"c17","patterns":{"exhaustive":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty mode: HTTP %d, want 400", resp.StatusCode)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != CodeInvalidRequest {
		t.Fatalf("empty mode code %q, want %q", ae.Code, CodeInvalidRequest)
	}

	if resp := doDelete(t, srv.URL+"/v1/jobs/j999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown: HTTP %d", resp.StatusCode)
	} else if ae := decodeEnvelope(t, resp); ae.Code != CodeNotFound {
		t.Fatalf("delete unknown code %q", ae.Code)
	}
}

// TestHTTPCancel drives the acceptance flow: DELETE a running job,
// watch its stream terminate with a cancelled status, and check the
// conflict envelopes for result-after-cancel and cancel-after-done.
func TestHTTPCancel(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id := postJob(t, srv, slowSpec())

	// Open the stream first so the terminal line is observed.
	streamResp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	sc := bufio.NewScanner(streamResp.Body)
	// First line: the job is running.
	if !sc.Scan() {
		t.Fatal("stream closed before first event")
	}

	resp := doDelete(t, srv.URL+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running job: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Drain the stream; the final line must be a cancelled JobStatus.
	lines := []string{strings.TrimSpace(sc.Text())}
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &st); err != nil {
		t.Fatalf("final stream line %q: %v", lines[len(lines)-1], err)
	}
	if st.ID != id || st.State != StateCancelled {
		t.Fatalf("stream terminal status %+v, want cancelled", st)
	}

	// Result of a cancelled job is a conflict with code "cancelled".
	resp, err = http.Get(srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result after cancel: HTTP %d, want 409", resp.StatusCode)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != CodeCancelled {
		t.Fatalf("result after cancel code %q, want %q", ae.Code, CodeCancelled)
	}

	// Repeat DELETE is idempotent.
	resp = doDelete(t, srv.URL+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat cancel: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Cancelling a finished job is a conflict with code "finished".
	done := postJob(t, srv, JobSpec{
		Circuit:  "c17",
		Patterns: PatternSpec{Exhaustive: true},
		Mode:     "nodrop",
	})
	if st := pollDone(t, srv, done); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	resp = doDelete(t, srv.URL+"/v1/jobs/"+done)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished job: HTTP %d, want 409", resp.StatusCode)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != CodeFinished {
		t.Fatalf("cancel finished code %q, want %q", ae.Code, CodeFinished)
	}
}
