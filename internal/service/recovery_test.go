package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/journal"
	"github.com/eda-go/adifo/internal/obs"
)

// journalCfg is the base configuration of the recovery tests: a
// journal in dir, all kinds enabled, quiet logs.
func journalCfg(dir string) Config {
	return Config{Logger: obs.Nop(), SimWorkers: 2, JournalDir: dir}
}

func mustOpen(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// httpGet fetches path from the service's handler and returns status
// code and body bytes.
func httpGet(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
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

// TestJournalReplaysStartedRecords: segments written by versions that
// also journaled a "started" record when a job began to run still
// replay. A job with submitted and started records reruns to done; a
// job that also finished serves its journaled result bytes verbatim.
func TestJournalReplaysStartedRecords(t *testing.T) {
	spec := JobSpec{Circuit: "c17", Mode: "drop", Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 3}}}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	live := New(Config{Logger: obs.Nop(), SimWorkers: 2})
	id, err := live.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, live, id)
	res, err := live.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	result, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	live.Close()

	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Now().UnixNano()
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmitted, Job: "j1", Kind: KindGrade, Spec: raw, At: at},
		{Type: "started", Job: "j1", At: at},
		{Type: journal.TypeSubmitted, Job: "j2", Kind: KindGrade, Spec: raw, At: at},
		{Type: "started", Job: "j2", At: at},
		{Type: journal.TypeFinished, Job: "j2", State: StateDone, Result: result, At: at},
	} {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()

	s := mustOpen(t, journalCfg(dir))
	defer s.Close()
	if s.replayRequeued != 1 {
		t.Errorf("requeued %d jobs, want 1 (j1)", s.replayRequeued)
	}
	if st := waitTerminal(t, s, "j1"); st.State != StateDone {
		t.Fatalf("j1 after replay: %+v, want a rerun to done", st)
	}
	code, body := httpGet(t, s.Handler(), "/v1/jobs/j2/result")
	if code != http.StatusOK || string(body) != string(result)+"\n" {
		t.Fatalf("j2 result: status %d, body %q; want the journaled bytes %q", code, body, result)
	}
	if st := s.Stats(); st.JobsSubmitted != 2 || st.JobsDone != 2 {
		t.Errorf("stats after replay: submitted %d, done %d; want 2, 2", st.JobsSubmitted, st.JobsDone)
	}
}

// TestJournalRecoveryTerminalBytes runs one job of every kind (plus a
// failed and a cancelled one) on a journal-backed service, restarts
// the service on the same directory, and requires the replayed
// /result responses to be byte-identical to the live ones — the
// restart is invisible to a polling client.
func TestJournalRecoveryTerminalBytes(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, journalCfg(dir))

	pat := PatternSpec{Random: &RandomSpec{N: 128, Seed: 7}}
	specs := map[string]JobSpec{
		"grade": {Circuit: "c17", Mode: "drop", Patterns: pat, Tenant: "acme"},
		"atpg":  {Kind: KindAtpg, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "dynm"}},
		"order": {Kind: KindADIOrder, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "decr"}},
		"fail":  {Circuit: "no_such_circuit", Mode: "drop", Patterns: pat},
	}
	ids := map[string]string{}
	for name, spec := range specs {
		id, err := a.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		ids[name] = id
		waitTerminal(t, a, id)
	}
	cancelledID, err := a.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	a.Cancel(cancelledID)
	waitTerminal(t, a, cancelledID)
	ids["cancelled"] = cancelledID

	// Snapshot the live wire responses, then stop the service.
	type snap struct {
		code   int
		result []byte
		status JobStatus
	}
	snaps := map[string]snap{}
	for name, id := range ids {
		code, body := httpGet(t, a.Handler(), "/v1/jobs/"+id+"/result")
		st, ok := a.Status(id)
		if !ok {
			t.Fatalf("status of %s vanished", id)
		}
		snaps[name] = snap{code: code, result: body, status: st}
	}
	a.Close()

	b := mustOpen(t, journalCfg(dir))
	defer b.Close()
	for name, id := range ids {
		want := snaps[name]
		code, body := httpGet(t, b.Handler(), "/v1/jobs/"+id+"/result")
		if code != want.code {
			t.Errorf("%s: replayed result status = %d, want %d", name, code, want.code)
		}
		if string(body) != string(want.result) {
			t.Errorf("%s: replayed result bytes differ\n live: %s\nreplay: %s",
				name, want.result, body)
		}
		st, ok := b.Status(id)
		if !ok {
			t.Fatalf("%s: job %s missing after replay", name, id)
		}
		if st.State != want.status.State || st.Kind != want.status.Kind ||
			st.Tenant != want.status.Tenant || st.Error != want.status.Error {
			t.Errorf("%s: replayed status = %+v, want state/kind/tenant/error of %+v",
				name, st, want.status)
		}
	}
	// Typed in-process access survives too.
	if res, err := b.ResultAny(ids["grade"]); err != nil {
		t.Errorf("typed result after replay: %v", err)
	} else if _, ok := res.(*JobResult); !ok {
		t.Errorf("typed result after replay is %T, want *JobResult", res)
	}
}

// TestJournalRequeueDeterminism hand-crafts a journal holding only
// submitted records — jobs that never ran — and requires the
// recovering service to run them to the exact results a fresh
// submission of the same specs produces, for every kind.
func TestJournalRequeueDeterminism(t *testing.T) {
	pat := PatternSpec{Random: &RandomSpec{N: 128, Seed: 11}}
	specs := []JobSpec{
		{Circuit: "c17", Mode: "drop", Patterns: pat},
		{Kind: KindAtpg, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "dynm"}},
		{Kind: KindADIOrder, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "decr"}},
	}

	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Append(journal.Record{
			Type: journal.TypeSubmitted,
			Job:  "j" + string(rune('1'+i)),
			Kind: NormalizeKind(spec.Kind),
			Spec: raw,
			At:   time.Now().UnixNano(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()

	recovered := mustOpen(t, journalCfg(dir))
	defer recovered.Close()
	control := New(Config{Logger: obs.Nop(), SimWorkers: 2})
	defer control.Close()

	// Results modulo timing: wall-clock history legitimately differs
	// between the two runs; everything else must not.
	sansTiming := func(res any) map[string]any {
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "timing")
		// Trace ids are run identity, not payload: the control run is a
		// different submission, so its trace legitimately differs.
		delete(m, "trace_id")
		return m
	}
	for i, spec := range specs {
		id := "j" + string(rune('1'+i))
		st := waitTerminal(t, recovered, id)
		if st.State != StateDone {
			t.Fatalf("replayed job %s: state %s (%s), want done", id, st.State, st.Error)
		}
		cid, err := control.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if cst := waitTerminal(t, control, cid); cst.State != StateDone {
			t.Fatalf("control job %s: state %s (%s), want done", cid, cst.State, cst.Error)
		}
		got, err := recovered.ResultAny(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.ResultAny(cid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sansTiming(got), sansTiming(want)) {
			t.Errorf("kind %s: replayed run diverged from control\nreplay: %#v\ncontrol: %#v",
				NormalizeKind(spec.Kind), sansTiming(got), sansTiming(want))
		}
	}
	if recovered.replayRequeued != uint64(len(specs)) {
		t.Errorf("replayRequeued = %d, want %d", recovered.replayRequeued, len(specs))
	}
}

// TestJournalIdempotencyAcrossRestart: an idempotency key used before
// a restart still answers with the original job id afterwards — the
// dedupe map is rebuilt from the journal.
func TestJournalIdempotencyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, journalCfg(dir))
	spec := JobSpec{Circuit: "c17", Mode: "drop", Tenant: "acme", IdempotencyKey: "key-1",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 3}}}
	id, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a, id)
	if again, _ := a.Submit(spec); again != id {
		t.Fatalf("live dedupe returned %s, want %s", again, id)
	}
	a.Close()

	b := mustOpen(t, journalCfg(dir))
	defer b.Close()
	again, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again != id {
		t.Fatalf("post-restart dedupe returned %s, want %s", again, id)
	}
	if got := b.Stats().JobsDeduped; got != 1 {
		t.Errorf("JobsDeduped = %d, want 1", got)
	}
	// A different tenant with the same key is a different submission.
	other := spec
	other.Tenant = "rival"
	otherID, err := b.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if otherID == id {
		t.Fatalf("key deduped across tenants: both got %s", id)
	}
}

// TestJournalTornSegmentKeepsLaterJobs: a crash tears the frame header
// at the tail of the first process's segment, and the second process
// runs a job to done in a segment of its own. After a third open that
// job must still be done with identical result bytes, its idempotency
// key must still dedupe to its id, and a new submit must get an id
// past it.
func TestJournalTornSegmentKeepsLaterJobs(t *testing.T) {
	dir := t.TempDir()
	spec := func(key string, seed uint64) JobSpec {
		return JobSpec{Circuit: "c17", Mode: "drop", Tenant: "acme", IdempotencyKey: key,
			Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: seed}}}
	}
	a := mustOpen(t, journalCfg(dir))
	early, err := a.Submit(spec("early", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a, early)
	a.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments after the first process: %v, %v; want one", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("xyz")); err != nil { // a frame header cut short
		t.Fatal(err)
	}
	f.Close()

	b := mustOpen(t, journalCfg(dir))
	late, err := b.Submit(spec("late", 2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, b, late); st.State != StateDone {
		t.Fatalf("late job: %+v, want done", st)
	}
	_, want := httpGet(t, b.Handler(), "/v1/jobs/"+late+"/result")
	b.Close()

	c := mustOpen(t, journalCfg(dir))
	defer c.Close()
	if st, ok := c.Status(late); !ok || st.State != StateDone {
		t.Fatalf("late job %s after the third open: known %v, state %q; want done", late, ok, st.State)
	}
	if code, got := httpGet(t, c.Handler(), "/v1/jobs/"+late+"/result"); code != http.StatusOK || string(got) != string(want) {
		t.Fatalf("late job's replayed result (HTTP %d) differs\n live: %s\nreplay: %s", code, want, got)
	}
	if again, err := c.Submit(spec("late", 2)); err != nil || again != late {
		t.Fatalf("resubmitting the late job's key returned %q, %v; want %s", again, err, late)
	}
	fresh, err := c.Submit(spec("fresh", 3))
	if err != nil {
		t.Fatal(err)
	}
	if parseJobID(fresh) <= parseJobID(late) {
		t.Fatalf("new submit got id %s, want one past %s", fresh, late)
	}
	waitTerminal(t, c, fresh)
}

// TestCloseClosesJournal: Close waits for the jobs, then closes the
// journal. A job done before Close is served byte-identically from
// the reopened directory, and a Submit after Close fails, because it
// cannot make the job durable, and leaves no job behind.
func TestCloseClosesJournal(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Circuit: "c17", Mode: "drop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 5}}}
	a := mustOpen(t, journalCfg(dir))
	id, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, a, id)
	_, want := httpGet(t, a.Handler(), "/v1/jobs/"+id+"/result")
	a.Close()
	if late, err := a.Submit(spec); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("Submit after Close = %q, %v; want an error wrapping journal.ErrClosed", late, err)
	}
	if n := len(a.Jobs()); n != 1 {
		t.Errorf("%d jobs after a refused submit, want 1", n)
	}
	a.Close()

	b := mustOpen(t, journalCfg(dir))
	defer b.Close()
	if code, got := httpGet(t, b.Handler(), "/v1/jobs/"+id+"/result"); code != http.StatusOK || string(got) != string(want) {
		t.Fatalf("replayed result (HTTP %d) differs\n live: %s\nreplay: %s", code, want, got)
	}
}

// TestJournalReplayUnrunnableSpec: a journaled queued job whose spec
// this server can no longer run (kind disabled) becomes a failed job
// — and the failure itself is journaled, so the next restart does not
// retry it again.
func TestJournalReplayUnrunnableSpec(t *testing.T) {
	dir := t.TempDir()
	// A journal holding only the submitted record — the process died
	// with the job still queued.
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindAtpg, Circuit: "c17",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 5}},
		Order:    &OrderSpec{Kind: "dynm"}}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const id = "j1"
	if err := jnl.Append(journal.Record{Type: journal.TypeSubmitted,
		Job: id, Kind: KindAtpg, Spec: raw, At: time.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	// Restart with atpg disabled: the replayed spec fails validation.
	b := mustOpen(t, Config{Logger: obs.Nop(), SimWorkers: 2, JournalDir: dir,
		Kinds: []string{KindGrade}})
	st, ok := b.Status(id)
	if !ok {
		t.Fatal("replayed job missing")
	}
	if st.State != StateFailed {
		t.Fatalf("replayed unrunnable job state = %s, want failed", st.State)
	}
	if _, err := b.ResultAny(id); err == nil || errors.Is(err, ErrNotDone) {
		t.Fatalf("result of failed replayed job = %v, want the job failure", err)
	}
	b.Close()

	// Third incarnation: the failure was journaled, so the job is
	// still terminal — not retried.
	c := mustOpen(t, Config{Logger: obs.Nop(), SimWorkers: 2, JournalDir: dir,
		Kinds: []string{KindGrade}})
	defer c.Close()
	if st, _ := c.Status(id); st.State != StateFailed {
		t.Fatalf("third incarnation state = %s, want failed", st.State)
	}
	if c.replayRequeued != 0 {
		t.Errorf("third incarnation requeued %d jobs, want 0", c.replayRequeued)
	}
}

// TestJournalSubmitDurableBeforeAck: the submitted record of an acked
// job is already on disk — a journal reader sees it without any
// cooperation from the (still running) service.
func TestJournalSubmitDurableBeforeAck(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, journalCfg(dir))
	defer s.Close()
	id, err := s.Submit(JobSpec{Circuit: "c17", Mode: "drop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	var seen bool
	if _, err := journal.Replay(dir, func(rec journal.Record) error {
		if rec.Type == journal.TypeSubmitted && rec.Job == id {
			seen = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatalf("submitted record of %s not durable at ack time", id)
	}
	waitTerminal(t, s, id)
}

// TestJournalDisabledNoDir: without JournalDir nothing is written and
// recovery is a no-op — the pre-journal configuration keeps its exact
// behavior.
func TestJournalDisabledNoDir(t *testing.T) {
	s := New(Config{Logger: obs.Nop(), SimWorkers: 2})
	defer s.Close()
	id, err := s.Submit(JobSpec{Circuit: "c17", Mode: "drop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id); st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if s.jnl != nil {
		t.Fatal("journal open without JournalDir")
	}
}

// TestJournalMetricsExposed: the journal families read real values on
// a journal-backed service.
func TestJournalMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, journalCfg(dir))
	defer s.Close()
	id, err := s.Submit(JobSpec{Circuit: "c17", Mode: "drop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 64, Seed: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, id)
	_, body := httpGet(t, s.Metrics().Handler(), "/")
	for _, want := range []string{
		"adifo_journal_enabled 1",
		"adifo_journal_appends_total",
		"adifo_journal_syncs_total",
	} {
		if !containsLine(string(body), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if filepath.Join(dir, "00000001.wal") == "" {
		t.Fatal("unreachable")
	}
}

// containsLine reports whether any exposition line starts with prefix.
func containsLine(body, prefix string) bool {
	for len(body) > 0 {
		i := 0
		for i < len(body) && body[i] != '\n' {
			i++
		}
		line := body[:i]
		if len(line) >= len(prefix) && line[:len(prefix)] == prefix {
			return true
		}
		if i == len(body) {
			break
		}
		body = body[i+1:]
	}
	return false
}
