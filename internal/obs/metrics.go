// Package obs is the observability core of the serving stack: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms with a hand-rolled Prometheus text-format
// exposition writer) and a leveled structured logger over the standard
// library's slog. Everything the stack measures — job latency
// histograms, queue depth, cache hit rates, cluster shard retries —
// flows through this package, so the service, the cluster coordinator
// and both binaries share one metric vocabulary and one log shape
// without pulling a client library into the module.
//
// The metrics core is deliberately small. Instruments are created once
// at wiring time and updated on hot paths with a single atomic
// operation (counters, gauges) or one atomic add per histogram bucket,
// so instrumenting the simulator's block barrier costs nanoseconds.
// Exposition walks the registry under its lock — scrapes are rare and
// cheap relative to the work being measured.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds for
// latencies, in seconds. They stretch from 100µs (a cache-hit submit)
// to 10s (a large ATPG job), matching the dynamic range of the job
// engine's phases.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing counter. The zero value is not
// usable; obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative to subtract) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one. Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	upper   []float64
	buckets []atomic.Uint64 // per-bucket (non-cumulative), +1 for +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, buckets: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() uint64 { return h.count.Load() }
func (h *Histogram) Sum() float64  { return math.Float64frombits(h.sumBits.Load()) }

// metric kinds, also the TYPE line of the exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric with all its labeled series.
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histograms only

	// fn-backed families compute their single value at scrape time
	// (uptime, cache counters owned elsewhere). fn families have no
	// labels.
	counterFn func() uint64
	gaugeFn   func() float64

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter/*Gauge/*Histogram
	order  []string
}

// seriesKeySep joins label values into a map key; label values never
// contain it.
const seriesKeySep = "\x1f"

func (f *family) get(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, seriesKeySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := make()
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// delete drops the series for the given label values; a no-op when the
// series was never created. The next With for the same values starts a
// fresh series from zero, so only gauges tracking live state delete.
func (f *family) delete(values []string) {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, seriesKeySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[key]; !ok {
		return
	}
	delete(f.series, key)
	for i, k := range f.order {
		if k == key {
			copy(f.order[i:], f.order[i+1:])
			f.order[len(f.order)-1] = ""
			f.order = f.order[:len(f.order)-1]
			break
		}
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// Sum returns the total of the series whose label values satisfy keep,
// or of every series when keep is nil.
func (v *CounterVec) Sum(keep func(values []string) bool) uint64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	var n uint64
	for key, m := range v.f.series {
		if keep == nil || keep(strings.Split(key, seriesKeySep)) {
			n += m.(*Counter).Value()
		}
	}
	return n
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() any { return &Gauge{} }).(*Gauge)
}

// Delete drops the series for the given label values from the
// exposition.
func (v *GaugeVec) Delete(values ...string) { v.f.delete(values) }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Families expose in registration order; series
// within a family in creation order. Registering the same name twice
// panics — a registry belongs to exactly one component.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic("obs: duplicate metric registration: " + f.name)
	}
	if f.series == nil {
		f.series = make(map[string]any)
	}
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := &family{name: name, help: help, kind: kindCounter}
	r.register(f)
	return f.get(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: kindCounter, labels: labels}
	r.register(f)
	return &CounterVec{f}
}

// CounterFunc registers a counter whose value is computed at scrape
// time — for counts owned by another subsystem (cache hit counters).
// fn must be monotonic for the exposition to be honest.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&family{name: name, help: help, kind: kindCounter, counterFn: fn})
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := &family{name: name, help: help, kind: kindGauge}
	r.register(f)
	return f.get(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := &family{name: name, help: help, kind: kindGauge, labels: labels}
	r.register(f)
	return &GaugeVec{f}
}

// GaugeFunc registers a gauge computed at scrape time (uptime, pool
// sizes owned elsewhere).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// Histogram registers and returns an unlabeled histogram with the
// given bucket upper bounds (nil = DefBuckets). Bounds must be sorted
// ascending.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := &family{name: name, help: help, kind: kindHistogram, buckets: checkBuckets(name, buckets)}
	r.register(f)
	return f.get(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec registers a histogram family with the given buckets
// (nil = DefBuckets) and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := &family{name: name, help: help, kind: kindHistogram, buckets: checkBuckets(name, buckets), labels: labels}
	r.register(f)
	return &HistogramVec{f}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram " + name + " buckets not strictly ascending")
		}
	}
	return append([]float64(nil), buckets...)
}

// WriteText renders every registered metric in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.write(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	switch {
	case f.counterFn != nil:
		fmt.Fprintf(b, "%s %d\n", f.name, f.counterFn())
		return
	case f.gaugeFn != nil:
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		return
	}
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()
	for i, key := range keys {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(key, seriesKeySep)
		}
		switch m := series[i].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, renderLabels(f.labels, values, "", ""), m.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, renderLabels(f.labels, values, "", ""), formatFloat(m.Value()))
		case *Histogram:
			cum := uint64(0)
			for bi, upper := range m.upper {
				cum += m.buckets[bi].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n",
					f.name, renderLabels(f.labels, values, "le", formatFloat(upper)), cum)
			}
			cum += m.buckets[len(m.upper)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, renderLabels(f.labels, values, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, renderLabels(f.labels, values, "", ""), formatFloat(m.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, renderLabels(f.labels, values, "", ""), m.count.Load())
		}
	}
}

// renderLabels renders {k="v",...}, appending the extra pair (the
// histogram's le) when extraKey is non-empty; empty label sets render
// as nothing.
func renderLabels(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus does: shortest
// representation that round-trips, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
