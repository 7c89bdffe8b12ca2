package trace

import (
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	h := sc.Traceparent()
	if len(h) != traceparentLen {
		t.Fatalf("header %q has %d bytes, want %d", h, len(h), traceparentLen)
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}
}

func TestParseTraceparentSpec(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, err := ParseTraceparent(valid)
	if err != nil {
		t.Fatalf("spec example rejected: %v", err)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" ||
		sc.SpanID.String() != "00f067aa0ba902b7" || !sc.Sampled() {
		t.Fatalf("spec example mis-decoded: %+v", sc)
	}

	bad := map[string]string{
		"empty":             "",
		"truncated":         valid[:40],
		"uppercase hex":     strings.ToUpper(valid),
		"version ff":        "ff" + valid[2:],
		"bad version hex":   "zz" + valid[2:],
		"zero trace id":     "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero parent id":    "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"v00 trailing":      valid + "-extra",
		"misplaced dashes":  strings.Replace(valid, "-", "_", 1),
		"bad flags":         valid[:53] + "0g",
		"short trace id":    "00-4bf92f3577b34da6a3ce929d0e0e473-000f067aa0ba902b7-01",
		"future bad suffix": "01" + valid[2:] + "x",
	}
	for name, h := range bad {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: %q accepted, want error", name, h)
		}
	}

	// Forward compatibility: a future version with a dash-separated
	// suffix parses its first four fields.
	future := "01" + valid[2:] + "-what-ever"
	if _, err := ParseTraceparent(future); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
}

func TestStartParentage(t *testing.T) {
	rec := NewRecorder()
	ctx := WithRecorder(context.Background(), rec)

	rctx, root := Start(ctx, "root", Root())
	if !root.Context().TraceID.IsValid() || !root.Context().SpanID.IsValid() {
		t.Fatal("root span has invalid ids")
	}
	_, child := Start(rctx, "child")
	if child.Context().TraceID != root.Context().TraceID {
		t.Error("child did not inherit the trace id")
	}
	if child.parent != root.Context().SpanID {
		t.Error("child's parent is not the root span")
	}
	child.End()
	root.End()

	td, ok := rec.Trace(root.Context().TraceID.String())
	if !ok {
		t.Fatal("trace not retained after root end")
	}
	if len(td.Spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(td.Spans))
	}
}

func TestStartJoinsRemoteParent(t *testing.T) {
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	ctx := ContextWithRemote(context.Background(), remote)
	_, sp := Start(ctx, "local-root", Root())
	if sp.Context().TraceID != remote.TraceID {
		t.Error("span did not join the remote trace")
	}
	if sp.parent != remote.SpanID {
		t.Error("span's parent is not the remote span")
	}
	if sp.Context().SpanID == remote.SpanID {
		t.Error("span reused the remote span id")
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.AddEvent("e")
	s.SetStatus(StatusError, "boom")
	s.End()
	if s.Context().IsValid() {
		t.Error("nil span has a valid context")
	}
}

func TestEndIdempotentAndPostEndMutationIgnored(t *testing.T) {
	rec := NewRecorder()
	ctx := WithRecorder(context.Background(), rec)
	_, sp := Start(ctx, "once", Root())
	sp.End()
	sp.SetAttr("late", "ignored")
	sp.End()
	st := rec.Stats()
	if st.SpansFinished != 1 {
		t.Fatalf("SpansFinished = %d, want 1 after double End", st.SpansFinished)
	}
	td, _ := rec.Trace(sp.Context().TraceID.String())
	if got := td.Spans[0].attr("late"); got != "" {
		t.Errorf("post-End attr recorded: %q", got)
	}
}

func TestTraceparentHelperRequiresSpanID(t *testing.T) {
	// A pre-minted trace id (no span) must not be injected as a
	// traceparent: zero parent-id is illegal on the wire.
	ctx := ContextWithRemote(context.Background(), SpanContext{TraceID: NewTraceID()})
	if h := Traceparent(ctx); h != "" {
		t.Errorf("Traceparent emitted %q for a span-less context", h)
	}
	ctx, sp := Start(ctx, "x")
	if h := Traceparent(ctx); h == "" {
		t.Error("Traceparent empty for a context with a live span")
	}
	sp.End()
}
