package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/journal"
	"github.com/eda-go/adifo/internal/obs"
)

// encodes records every result payload the engine encodes into a job's
// bytes, by job id.
type encodes struct {
	mu   sync.Mutex
	byID map[string][]any
}

// recordEncodes installs an encodes as the engine's encode hook until
// the test ends.
func recordEncodes(t *testing.T) *encodes {
	e := &encodes{byID: map[string][]any{}}
	hook := func(res any) {
		e.mu.Lock()
		defer e.mu.Unlock()
		id := resultID(res)
		e.byID[id] = append(e.byID[id], res)
	}
	encodeHook.Store(&hook)
	t.Cleanup(func() { encodeHook.Store(nil) })
	return e
}

// of returns the payloads of job id encoded so far.
func (e *encodes) of(id string) []any {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]any(nil), e.byID[id]...)
}

func resultID(res any) string {
	switch r := res.(type) {
	case *JobResult:
		return r.ID
	case *AtpgResult:
		return r.ID
	case *OrderResult:
		return r.ID
	}
	return ""
}

// steppedClock reads one second later on every call, in UTC and without
// a monotonic reading, so a result's timing survives a JSON round trip
// exactly.
func steppedClock() func() time.Time {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var tick atomic.Int64
	return func() time.Time { return base.Add(time.Duration(tick.Add(1)) * time.Second) }
}

// oneOfEachKind is a job of every kind on c17. The grade job's eight
// vectors leave faults undetected, whose detection lists are empty.
func oneOfEachKind() map[string]JobSpec {
	pat := PatternSpec{Random: &RandomSpec{N: 64, Seed: 3}}
	return map[string]JobSpec{
		KindGrade:    {Circuit: "c17", Mode: "nodrop", Patterns: PatternSpec{Random: &RandomSpec{N: 8, Seed: 3}}},
		KindAtpg:     {Kind: KindAtpg, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "dynm"}, Gen: &GenSpec{FillSeed: 5}},
		KindADIOrder: {Kind: KindADIOrder, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "0dynm"}},
	}
}

// runToStreamEnd submits spec and follows its stream to the end.
func runToStreamEnd(t *testing.T, s *Service, spec JobSpec) string {
	t.Helper()
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Stream(context.Background(), id, nil); err != nil || st.State != StateDone {
		t.Fatalf("job %s: stream ended %v, %+v", id, err, st)
	}
	return id
}

// holding returns what job id holds: its typed payload and its bytes.
func holding(s *Service, id string) (any, []byte) {
	j := s.lookup(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.raw
}

// fetchResult is GET /v1/jobs/{id}/result on s, which must answer 200
// with a Content-Length.
func fetchResult(t *testing.T, s *Service, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("result of %s: HTTP %d: %s", id, rec.Code, rec.Body.Bytes())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("result of %s: Content-Length %q for a %d-byte body", id, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// mutate changes a decoded result in place, its shared slices included.
func mutate(res any) {
	switch r := res.(type) {
	case *JobResult:
		r.ID, r.Ndet[0], r.PerFault[0].Name = "mutated", -1, "mutated"
	case *AtpgResult:
		r.ID, r.Tests[0], r.Curve[0] = "mutated", "mutated", -1
	case *OrderResult:
		r.ID, r.Perm[0], r.Names[0] = "mutated", -1, "mutated"
	}
}

// checkOwnedDecode requires ResultAny of job id, which holds bytes, to
// decode to a value equal to orig, and a change to that value to leave
// the bytes the next GET /result serves as they were.
func checkOwnedDecode(t *testing.T, s *Service, id string, orig any, body []byte) {
	t.Helper()
	got, err := s.ResultAny(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("ResultAny of %s decodes to\n%+v\nwant the encoded\n%+v", id, got, orig)
	}
	mutate(got)
	if again := fetchResult(t, s, id); !bytes.Equal(again, body) {
		t.Fatalf("changing the value ResultAny returned changed the result of %s", id)
	}
}

// TestJournaledJobHoldsBytesOnly: on a journaled engine a done job of
// every kind holds only the bytes its finished record carries by the
// time its stream ends. Two GETs serve them without another encoding,
// in-process callers decode values of their own, and the journal holds
// the same bytes.
func TestJournaledJobHoldsBytesOnly(t *testing.T) {
	enc := recordEncodes(t)
	dir := t.TempDir()
	s := mustOpen(t, journalCfg(dir))
	s.now = steppedClock()
	served := map[string][]byte{}
	for kind, spec := range oneOfEachKind() {
		id := runToStreamEnd(t, s, spec)
		res, raw := holding(s, id)
		if res != nil || raw == nil {
			t.Fatalf("%s job at its stream's end holds payload %T and %d bytes, want bytes only", kind, res, len(raw))
		}
		orig := enc.of(id)
		if len(orig) != 1 {
			t.Fatalf("%s job encoded %d times by its finish, want 1", kind, len(orig))
		}
		want, err := json.Marshal(orig[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("%s job holds bytes that differ from json.Marshal of its result", kind)
		}
		for range 2 {
			if body := fetchResult(t, s, id); !bytes.Equal(body, append(want, '\n')) {
				t.Fatalf("%s result served\n%s\nwant\n%s", kind, body, want)
			}
		}
		if n := len(enc.of(id)); n != 1 {
			t.Fatalf("%s job encoded %d times after two GETs, want 1", kind, n)
		}
		served[id] = append(want, '\n')
		checkOwnedDecode(t, s, id, orig[0], served[id])
	}
	s.Close()

	finished := 0
	if _, err := journal.Replay(dir, func(rec journal.Record) error {
		if rec.Type == journal.TypeFinished {
			finished++
			if want := served[rec.Job]; !bytes.Equal(append(rec.Result, '\n'), want) {
				t.Errorf("%s: finished record carries %q, GET served %q", rec.Job, rec.Result, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if finished != len(served) {
		t.Fatalf("journal holds %d finished records, want %d", finished, len(served))
	}
}

// TestUnjournaledJobEncodesOnFirstGet: on an engine without a journal a
// done job holds its typed result, which in-process callers get as it
// is, until the first GET /result encodes it, once however many GETs
// arrive together. From then on it holds only those bytes, which every
// later GET serves.
func TestUnjournaledJobEncodesOnFirstGet(t *testing.T) {
	enc := recordEncodes(t)
	s := New(Config{Logger: obs.Nop(), SimWorkers: 2})
	defer s.Close()
	s.now = steppedClock()
	for kind, spec := range oneOfEachKind() {
		id := runToStreamEnd(t, s, spec)
		res, raw := holding(s, id)
		if res == nil || raw != nil {
			t.Fatalf("%s job before a GET holds payload %T and %d bytes, want the payload only", kind, res, len(raw))
		}
		if got, err := s.ResultAny(id); err != nil || got != res {
			t.Fatalf("%s: ResultAny before a GET returned %p (%v), want the job's payload %p", kind, got, err, res)
		}
		if n := len(enc.of(id)); n != 0 {
			t.Fatalf("%s job encoded %d times before a GET, want 0", kind, n)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		// Concurrent first GETs encode the job once between them.
		bodies := make([]*httptest.ResponseRecorder, 4)
		var wg sync.WaitGroup
		for i := range bodies {
			bodies[i] = httptest.NewRecorder()
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Handler().ServeHTTP(bodies[i], httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/result", nil))
			}()
		}
		wg.Wait()
		for _, rec := range bodies {
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s result served HTTP %d\n%s\nwant\n%s", kind, rec.Code, rec.Body.Bytes(), want)
			}
		}
		if n := len(enc.of(id)); n != 1 {
			t.Fatalf("%s job encoded %d times by %d GETs, want 1", kind, n, len(bodies))
		}
		if res2, raw := holding(s, id); res2 != nil || !bytes.Equal(append(raw, '\n'), want) {
			t.Fatalf("%s job after a GET holds payload %T and %d bytes, want the served bytes only", kind, res2, len(raw))
		}
		checkOwnedDecode(t, s, id, res, want)
	}
}

// TestJournaledPayloadsReadBack: every record a journaled engine writes
// reads back through the journal as valid JSON that decodes to what was
// encoded: the submitted spec of each kind, and the finished result of
// each kind. EncodeFrame splices both unscanned, so an in-process
// encoder that wrote invalid JSON would fail here.
func TestJournaledPayloadsReadBack(t *testing.T) {
	enc := recordEncodes(t)
	dir := t.TempDir()
	s := mustOpen(t, journalCfg(dir))
	s.now = steppedClock()
	specs := map[string]JobSpec{}
	for kind, spec := range oneOfEachKind() {
		spec.Tenant, spec.IdempotencyKey, spec.Name = "acme", "key-"+kind, "name <&> \"quoted\" naïve"
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		specs[id] = spec
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("%s job ended %s: %s", kind, st.State, st.Error)
		}
	}
	s.Close()

	seen := map[string]int{}
	_, err := journal.Replay(dir, func(rec journal.Record) error {
		if rec.At == 0 {
			t.Fatalf("%s: %s record reads back without its time", rec.Job, rec.Type)
		}
		switch rec.Type {
		case journal.TypeSubmitted:
			if !json.Valid(rec.Spec) {
				t.Fatalf("%s: submitted spec is not valid JSON: %q", rec.Job, rec.Spec)
			}
			var got JobSpec
			if err := json.Unmarshal(rec.Spec, &got); err != nil || !reflect.DeepEqual(got, specs[rec.Job]) {
				t.Fatalf("%s: spec reads back as %+v (%v), want %+v", rec.Job, got, err, specs[rec.Job])
			}
		case journal.TypeFinished:
			if !json.Valid(rec.Result) {
				t.Fatalf("%s: finished result is not valid JSON: %q", rec.Job, rec.Result)
			}
			orig := enc.of(rec.Job)
			got, err := decodeResult(NormalizeKind(specs[rec.Job].Kind), rec.Result)
			if err != nil || len(orig) != 1 || !reflect.DeepEqual(got, orig[0]) {
				t.Fatalf("%s: result reads back as %+v (%v), want the one encoded: %+v", rec.Job, got, err, orig)
			}
		}
		seen[rec.Type]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen[journal.TypeSubmitted] != len(specs) || seen[journal.TypeFinished] != len(specs) {
		t.Fatalf("journal holds %v records, want %d of each type", seen, len(specs))
	}
}
