package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

// endTrace runs a tiny root+child trace named kind through rec with a
// synthetic duration (the recorder trusts the SpanData timestamps).
func endTrace(rec *Recorder, kind string, d time.Duration) TraceID {
	id := NewTraceID()
	root := NewSpanID()
	start := time.Unix(1700000000, 0)
	rec.startSpan()
	rec.endSpan(id, &SpanData{
		SpanID: NewSpanID().String(), ParentSpanID: root.String(),
		Name: "phase", Start: start, End: start.Add(d / 2),
		DurationSecs: (d / 2).Seconds(),
	}, false)
	rec.startSpan()
	rec.endSpan(id, &SpanData{
		SpanID: root.String(), Name: kind, Start: start, End: start.Add(d),
		DurationSecs: d.Seconds(),
		Attrs:        []Attr{{Key: "kind", Value: kind}},
	}, true)
	return id
}

func TestRecorderCompletesOnRoot(t *testing.T) {
	rec := NewRecorder()
	id := endTrace(rec, "grade", 10*time.Millisecond)

	td, ok := rec.Trace(id.String())
	if !ok {
		t.Fatal("completed trace not retrievable")
	}
	if td.Kind != "grade" {
		t.Errorf("Kind = %q, want grade", td.Kind)
	}
	if len(td.Spans) != 2 {
		t.Errorf("spans = %d, want 2", len(td.Spans))
	}
	if td.Spans[0].Name != "phase" && td.Spans[0].Name != td.Root {
		// spans are sorted by start; both share a start here, so just
		// assert the root name landed on the trace.
		t.Errorf("unexpected first span %q", td.Spans[0].Name)
	}
	st := rec.Stats()
	if st.SpansStarted != 2 || st.SpansFinished != 2 || st.SpansDropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Traces != 1 {
		t.Errorf("Traces = %d, want 1", st.Traces)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder()
	var first TraceID
	var slowest TraceID
	for i := 0; i < ringCapacity+4; i++ {
		d := time.Duration(i+1) * time.Millisecond
		id := endTrace(rec, "grade", d)
		if i == 0 {
			first = id
		}
		slowest = id // durations ascend, so the last is slowest
	}
	if _, ok := rec.Trace(first.String()); ok {
		t.Error("oldest trace survived ring eviction without a slow pin")
	}
	if _, ok := rec.Trace(slowest.String()); !ok {
		t.Error("slowest trace missing")
	}
	got := rec.Traces()
	// ringCapacity ring entries; the slowest pins are already in the
	// ring (they are also the newest), so no extra pinned summary.
	if len(got) != ringCapacity {
		t.Fatalf("Traces() = %d summaries, want %d", len(got), ringCapacity)
	}
	if got[0].TraceID != slowest.String() {
		t.Errorf("summaries not newest-first: got %s first", got[0].TraceID)
	}
}

func TestRecorderSlowestPinSurvivesRing(t *testing.T) {
	rec := NewRecorder()
	slow := endTrace(rec, "atpg", time.Second)
	for i := 0; i < ringCapacity+3; i++ {
		endTrace(rec, "atpg", time.Millisecond)
	}
	if _, ok := rec.Trace(slow.String()); !ok {
		t.Fatal("slowest-per-kind pin evicted by ring churn")
	}
	found := false
	for _, s := range rec.Traces() {
		if s.TraceID == slow.String() {
			found = true
		}
	}
	if !found {
		t.Error("pinned trace absent from Traces() listing")
	}
}

func TestRecorderMaxActiveEviction(t *testing.T) {
	rec := NewRecorder()
	// One trace more than the bound accumulates spans but never sees a
	// root end.
	for range maxActive + 1 {
		rec.startSpan()
		rec.endSpan(NewTraceID(), &SpanData{SpanID: NewSpanID().String(), Name: "floating"}, false)
	}
	st := rec.Stats()
	if st.SpansDropped == 0 {
		t.Error("MaxActive overflow did not count drops")
	}
}

func TestRecorderSpanCap(t *testing.T) {
	rec := NewRecorder()
	id := NewTraceID()
	for i := 0; i < maxSpansPerTrace+8; i++ {
		rec.startSpan()
		rec.endSpan(id, &SpanData{SpanID: NewSpanID().String(), Name: fmt.Sprintf("c%d", i)}, false)
	}
	rec.startSpan()
	rec.endSpan(id, &SpanData{SpanID: NewSpanID().String(), Name: "root"}, true)
	td, ok := rec.Trace(id.String())
	if !ok {
		t.Fatal("trace missing")
	}
	if len(td.Spans) != maxSpansPerTrace+1 { // the capped children + root always kept
		t.Fatalf("spans = %d, want %d (cap %d + root)", len(td.Spans), maxSpansPerTrace+1, maxSpansPerTrace)
	}
	var hasRoot bool
	for _, sp := range td.Spans {
		if sp.Name == "root" {
			hasRoot = true
		}
	}
	if !hasRoot {
		t.Error("root span dropped by span cap")
	}
}

func TestTreeNesting(t *testing.T) {
	rec := NewRecorder()
	ctx := WithRecorder(context.Background(), rec)
	rctx, root := Start(ctx, "job.grade", Root())
	c1ctx, c1 := Start(rctx, "simulate")
	_, c2 := Start(c1ctx, "inner")
	c2.End()
	c1.End()
	_, c3 := Start(rctx, "merge")
	c3.End()
	root.End()

	td, ok := rec.Trace(root.Context().TraceID.String())
	if !ok {
		t.Fatal("trace missing")
	}
	roots := td.Tree()
	if len(roots) != 1 {
		t.Fatalf("tree has %d roots, want 1", len(roots))
	}
	if len(roots[0].Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(roots[0].Children))
	}
	var inner int
	for _, c := range roots[0].Children {
		if c.Name == "simulate" {
			inner = len(c.Children)
		}
	}
	if inner != 1 {
		t.Errorf("simulate has %d children, want 1", inner)
	}
}

func TestHandler(t *testing.T) {
	rec := NewRecorder()
	id := endTrace(rec, "order", 5*time.Millisecond)

	h := rec.Handler()

	// List view.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != 200 {
		t.Fatalf("list status %d", rr.Code)
	}
	var list struct {
		Traces []TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatalf("list JSON: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].TraceID != id.String() {
		t.Fatalf("list = %+v", list.Traces)
	}

	// Tree view.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces/"+id.String(), nil))
	if rr.Code != 200 {
		t.Fatalf("tree status %d: %s", rr.Code, rr.Body.String())
	}
	var tree struct {
		TraceID string      `json:"trace_id"`
		Tree    []*SpanNode `json:"tree"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &tree); err != nil {
		t.Fatalf("tree JSON: %v", err)
	}
	if tree.TraceID != id.String() || len(tree.Tree) == 0 {
		t.Fatalf("tree = %+v", tree)
	}

	// Unknown id.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces/"+NewTraceID().String(), nil))
	if rr.Code != 404 {
		t.Errorf("unknown trace status %d, want 404", rr.Code)
	}
}
