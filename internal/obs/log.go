package obs

import (
	"context"
	"io"
	"log/slog"
	"os"

	"github.com/eda-go/adifo/internal/obs/trace"
)

// Logging: every component of the serving stack (service engine,
// cluster coordinator, both binaries) logs through a *slog.Logger with
// consistent key-value fields — "job", "kind", "backend", "shard" —
// instead of free-form printf lines, so one grep (or one log pipeline
// filter) follows a job across layers. The constructors here pin the
// stack's one handler configuration; components accept any
// *slog.Logger, so tests pass Nop() and embedders plug in their own
// handler.

// NewLogger returns a leveled text logger writing to w. Level may be a
// plain slog.Level or a dynamic slog.LevelVar. Records logged through
// the context-aware methods (InfoContext etc.) under a traced context
// carry trace_id and span_id, so one grep correlates logs with the
// /debug/traces flight recorder.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(WithTrace(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})))
}

// WithTrace wraps a slog handler so every record handled under a traced
// context gains trace_id and span_id attributes. Records logged without
// a span on the context pass through unchanged.
func WithTrace(h slog.Handler) slog.Handler {
	if _, ok := h.(traceHandler); ok {
		return h
	}
	return traceHandler{h}
}

type traceHandler struct{ slog.Handler }

func (t traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if sc := trace.SpanContextFromContext(ctx); sc.IsValid() {
		r.AddAttrs(slog.String("trace_id", sc.TraceID.String()))
		if sc.SpanID.IsValid() {
			r.AddAttrs(slog.String("span_id", sc.SpanID.String()))
		}
	}
	return t.Handler.Handle(ctx, r)
}

func (t traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{t.Handler.WithAttrs(attrs)}
}

func (t traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{t.Handler.WithGroup(name)}
}

// Default is the stack's default logger: Info-level text on stderr.
// Components whose config carries a nil logger fall back to it, so
// diagnostics are never silently dropped.
func Default() *slog.Logger {
	return defaultLogger
}

var defaultLogger = NewLogger(os.Stderr, slog.LevelInfo)

// Nop returns a logger that discards everything — the quiet mode tests
// and benchmarks use so engine diagnostics don't pollute their output.
func Nop() *slog.Logger { return nopLogger }

var nopLogger = slog.New(slog.DiscardHandler)

// Or returns l, or the package default when l is nil — the one-line
// config normalization every component shares.
func Or(l *slog.Logger) *slog.Logger {
	if l == nil {
		return Default()
	}
	return l
}
