package trace

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// A Recorder's retention bounds.
const (
	// ringCapacity is the recency ring: how many recently completed
	// traces are retained regardless of duration.
	ringCapacity = 128
	// slowestPerKind additionally pins the N slowest completed traces
	// per kind — the flight-recorder part: a slow job stays inspectable
	// long after the ring has cycled past it.
	slowestPerKind = 8
	// maxActive bounds traces that have spans recorded but no finished
	// root yet; beyond it the oldest active trace is evicted and its
	// spans counted as dropped.
	maxActive = 256
	// maxSpansPerTrace bounds one trace's span buffer; further spans
	// are dropped, not buffered.
	maxSpansPerTrace = 512
)

// SpanData is one finished span as the recorder retains and serves it.
type SpanData struct {
	SpanID       string    `json:"span_id"`
	ParentSpanID string    `json:"parent_span_id,omitempty"`
	Name         string    `json:"name"`
	Start        time.Time `json:"start"`
	End          time.Time `json:"end"`
	DurationSecs float64   `json:"duration_seconds"`
	Attrs        []Attr    `json:"attrs,omitempty"`
	Events       []Event   `json:"events,omitempty"`
	Status       string    `json:"status,omitempty"`
	StatusMsg    string    `json:"status_message,omitempty"`
}

// attr returns the value of the span's first attribute named key, "".
func (s *SpanData) attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TraceData is one completed trace: its root span's identity plus
// every local span, sorted by start time.
type TraceData struct {
	TraceID      string      `json:"trace_id"`
	Root         string      `json:"root"`
	Kind         string      `json:"kind,omitempty"`
	Start        time.Time   `json:"start"`
	DurationSecs float64     `json:"duration_seconds"`
	Status       string      `json:"status,omitempty"`
	Spans        []*SpanData `json:"spans"`

	// Retention membership; a trace is dropped only once it is in
	// neither the recency ring nor a slowest-per-kind set.
	inRing, inSlow bool
}

// TraceSummary is the list view of one retained trace.
type TraceSummary struct {
	TraceID      string    `json:"trace_id"`
	Root         string    `json:"root"`
	Kind         string    `json:"kind,omitempty"`
	Start        time.Time `json:"start"`
	DurationSecs float64   `json:"duration_seconds"`
	Status       string    `json:"status,omitempty"`
	Spans        int       `json:"spans"`
}

// Stats is the recorder's counter snapshot, lifted by the service
// into its metric registry (the same dependency direction the journal
// uses).
type Stats struct {
	// SpansStarted counts Start calls under this recorder;
	// SpansFinished counts spans that reached a retained or active
	// trace buffer; SpansDropped counts spans lost to capacity bounds
	// (buffer full, active-table eviction, span after trace
	// completion).
	SpansStarted  uint64
	SpansFinished uint64
	SpansDropped  uint64
	// Traces is the completed-trace retention occupancy (ring plus
	// slowest-per-kind pins).
	Traces int
}

// activeTrace buffers finished spans of a trace whose root has not
// ended yet.
type activeTrace struct {
	spans []*SpanData
	seq   uint64 // insertion order for oldest-first eviction
}

// Recorder is the bounded in-process trace store: spans accumulate
// per trace while it runs, a Root span's End finalizes the trace, and
// completed traces are retained in a recency ring plus a
// slowest-N-per-kind set. All methods are safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	active   map[TraceID]*activeTrace
	seq      uint64
	ring     []*TraceData            // recency ring, oldest first
	slow     map[string][]*TraceData // kind -> slowest-first ascending by duration
	byID     map[string]*TraceData
	started  uint64
	finished uint64
	dropped  uint64
}

// NewRecorder returns a ready flight recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		active: make(map[TraceID]*activeTrace),
		slow:   make(map[string][]*TraceData),
		byID:   make(map[string]*TraceData),
	}
}

// startSpan counts one Start under this recorder.
func (r *Recorder) startSpan() {
	r.mu.Lock()
	r.started++
	r.mu.Unlock()
}

// endSpan files one finished span under its trace; root finalizes the
// trace.
func (r *Recorder) endSpan(id TraceID, data *SpanData, root bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, ok := r.active[id]
	if !ok {
		if done := r.byID[id.String()]; done != nil {
			// The trace already completed; a straggler span has no
			// home.
			r.dropped++
			return
		}
		if len(r.active) >= maxActive {
			r.evictOldestActiveLocked()
		}
		at = &activeTrace{seq: r.seq}
		r.seq++
		r.active[id] = at
	}
	if !root && len(at.spans) >= maxSpansPerTrace {
		// The root span is always kept (it carries the trace's
		// identity); only its children are subject to the buffer bound.
		r.dropped++
		return
	}
	at.spans = append(at.spans, data)
	r.finished++
	if root {
		r.completeLocked(id, at, data)
	}
}

// evictOldestActiveLocked drops the oldest active trace wholesale —
// the bound that keeps abandoned traces (a job cancelled before its
// root span ever opened) from pinning memory forever.
func (r *Recorder) evictOldestActiveLocked() {
	var oldest TraceID
	var oldestSeq uint64
	first := true
	for id, at := range r.active {
		if first || at.seq < oldestSeq {
			oldest, oldestSeq, first = id, at.seq, false
		}
	}
	if !first {
		r.dropped += uint64(len(r.active[oldest].spans))
		delete(r.active, oldest)
	}
}

// completeLocked turns an active trace into a retained TraceData and
// settles retention.
func (r *Recorder) completeLocked(id TraceID, at *activeTrace, root *SpanData) {
	delete(r.active, id)
	spans := at.spans
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	td := &TraceData{
		TraceID:      id.String(),
		Root:         root.Name,
		Kind:         root.attr("kind"),
		Start:        root.Start,
		DurationSecs: root.DurationSecs,
		Status:       root.Status,
		Spans:        spans,
	}
	r.byID[td.TraceID] = td

	// Recency ring.
	td.inRing = true
	r.ring = append(r.ring, td)
	if len(r.ring) > ringCapacity {
		old := r.ring[0]
		r.ring = r.ring[1:]
		old.inRing = false
		r.releaseLocked(old)
	}

	// Slowest-per-kind pins, ascending by duration so index 0 is the
	// first to lose its seat.
	kind := td.Kind
	if kind == "" {
		kind = td.Root
	}
	set := r.slow[kind]
	i := sort.Search(len(set), func(i int) bool { return set[i].DurationSecs >= td.DurationSecs })
	if len(set) < slowestPerKind {
		set = append(set, nil)
		copy(set[i+1:], set[i:])
		set[i] = td
		td.inSlow = true
	} else if i > 0 {
		evicted := set[0]
		copy(set, set[1:i])
		set[i-1] = td
		td.inSlow = true
		evicted.inSlow = false
		r.releaseLocked(evicted)
	}
	r.slow[kind] = set
}

// releaseLocked drops a trace that lost its last retention seat.
func (r *Recorder) releaseLocked(td *TraceData) {
	if !td.inRing && !td.inSlow {
		delete(r.byID, td.TraceID)
	}
}

// Stats returns the recorder's counters.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		SpansStarted:  r.started,
		SpansFinished: r.finished,
		SpansDropped:  r.dropped,
		Traces:        len(r.byID),
	}
}

// Traces lists the retained traces, most recently completed first.
func (r *Recorder) Traces() []TraceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool, len(r.byID))
	out := make([]TraceSummary, 0, len(r.byID))
	add := func(td *TraceData) {
		if seen[td.TraceID] {
			return
		}
		seen[td.TraceID] = true
		out = append(out, TraceSummary{
			TraceID:      td.TraceID,
			Root:         td.Root,
			Kind:         td.Kind,
			Start:        td.Start,
			DurationSecs: td.DurationSecs,
			Status:       td.Status,
			Spans:        len(td.Spans),
		})
	}
	for i := len(r.ring) - 1; i >= 0; i-- {
		add(r.ring[i])
	}
	// Slowest pins that already cycled out of the ring, slowest first.
	kinds := make([]string, 0, len(r.slow))
	for kind := range r.slow {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		set := r.slow[kind]
		for i := len(set) - 1; i >= 0; i-- {
			add(set[i])
		}
	}
	return out
}

// Trace returns one retained trace by its hex id.
func (r *Recorder) Trace(id string) (*TraceData, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	td, ok := r.byID[id]
	return td, ok
}

// SpanNode is one span of the single-trace tree view, with its
// children nested.
type SpanNode struct {
	*SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree renders a completed trace as a span tree: spans nest under
// their parents; spans whose parent is remote (or unknown — dropped
// by a capacity bound) surface as additional roots.
func (td *TraceData) Tree() []*SpanNode {
	nodes := make(map[string]*SpanNode, len(td.Spans))
	for _, sp := range td.Spans {
		nodes[sp.SpanID] = &SpanNode{SpanData: sp}
	}
	var roots []*SpanNode
	for _, sp := range td.Spans {
		n := nodes[sp.SpanID]
		if p, ok := nodes[sp.ParentSpanID]; ok && sp.ParentSpanID != sp.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// traceTree is the JSON shape of the single-trace endpoint.
type traceTree struct {
	TraceID      string      `json:"trace_id"`
	Root         string      `json:"root"`
	Kind         string      `json:"kind,omitempty"`
	Start        time.Time   `json:"start"`
	DurationSecs float64     `json:"duration_seconds"`
	Status       string      `json:"status,omitempty"`
	Spans        int         `json:"spans"`
	Tree         []*SpanNode `json:"tree"`
}

// Handler serves the recorder over HTTP, mountable at /debug/traces:
//
//	GET /debug/traces       JSON list of retained traces (most recent
//	                        first, slowest-per-kind pins appended)
//	GET /debug/traces/{id}  one trace as a span tree
//
// The handler derives the trace id from the path suffix itself, so it
// works behind any mux.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		path := req.URL.Path
		if i := strings.Index(path, "/debug/traces"); i >= 0 {
			path = path[i+len("/debug/traces"):]
		}
		id := strings.Trim(path, "/")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id == "" {
			enc.Encode(struct {
				Traces []TraceSummary `json:"traces"`
			}{r.Traces()})
			return
		}
		td, ok := r.Trace(id)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			enc.Encode(map[string]string{"error": "trace not found: " + id})
			return
		}
		enc.Encode(traceTree{
			TraceID:      td.TraceID,
			Root:         td.Root,
			Kind:         td.Kind,
			Start:        td.Start,
			DurationSecs: td.DurationSecs,
			Status:       td.Status,
			Spans:        len(td.Spans),
			Tree:         td.Tree(),
		})
	})
}
