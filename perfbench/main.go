// Command perfbench is the repository's benchmark. One invocation runs
// one workload: it sets the system under test up several times (the
// median is setup_s), drives it with closed-loop clients for a fixed
// wall time in whole rounds of op classes, checks every output against
// a reference, and prints its metrics. The last line of standard output
// is one JSON object: the end-to-end metrics, or with -trace 1 the
// per-layer metrics derived from the benchmark's own spans.
//
// run.py builds and runs it from the repository root; README.md
// describes the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind (journal segments,
// span dumps); run.py builds the binary into it as well.
const buildDir = ".bench_build"

// Trace ids of the untimed ops; a timed op's trace id is its index in
// the timed phase.
const (
	traceSetUp  int64 = -2 // the op that ends a grade set-up
	traceDirect int64 = -3 // ops whose results feed the direct calls
	traceBefore int64 = -4 // the round before the timed phase
	traceAfter  int64 = -5 // the grade round after it
)

// workload is one benchmark workload.
type workload interface {
	// clients is the closed-loop client count.
	clients() int
	// round lists the op class of each position in a round; a timed
	// phase always completes whole rounds, so the class mix is exact.
	round() []int
	// setUps is how many times a run sets the system up.
	setUps() int
	// setUp builds the system under test from nothing; close releases
	// it again.
	setUp(tr *tracer) error
	// op runs one op of class cls as trace id trace; it returns an
	// error when the op fails or its result is wrong.
	op(tr *tracer, trace int64, cls int) error
	// beginPhase snapshots the counters the system exposes; endPhase
	// checks the phase's counters and, when tr is on, fills the
	// per-layer metrics from the traced ops (trace ids >= 0) and the
	// counters. Both run while no op is in flight.
	beginPhase() error
	endPhase(p *phase, tr *tracer, layers map[string]float64) error
	close()
}

// phase is the timed phase of a run.
type phase struct {
	ops       int
	tracedOps int // ops run with tracing on
	failed    int
	wall      time.Duration
	lat       []time.Duration
	errs      []string
	opsOfCl   []int       // ops per class
	latOfCl   [][]float64 // latencies per class, ms
	parts     []part
}

// part is one part of a timed phase.
type part struct {
	traced bool
	rate   float64 // ops per second
	cpu    float64 // CPU ms per op
}

// marks collects the exact-repeat checks a run broke; such a run is not
// comparable with other runs of its seed.
type marks struct {
	mu   sync.Mutex
	list []string
}

func (m *marks) add(count, format string, args ...any) {
	msg := count + ": " + fmt.Sprintf(format, args...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.Contains(m.list, msg) {
		m.list = append(m.list, msg)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; grade-http and cluster-grade derive their netlists and patterns from it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds (twice that in a traced run)")
	traced := flag.Int("trace", 0, "1 = traced run: report per-layer metrics and tracing overhead")
	flag.Parse()

	var mk marks
	held := liveHeapMB()
	w, err := newWorkload(*name, *seed, &mk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// The inputs and references stay in the process for the whole run,
	// so they are part of peak_rss_mb.
	held = liveHeapMB() - held
	defer w.close()
	rep, err := measure(w, &mk, *name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("inputs and references held by the benchmark: %.2f MB of live heap\n", held)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

var workloadNames = []string{"paper-tables", "grade-http", "cluster-grade"}

const defaultSeed = 1

func newWorkload(name string, seed uint64, mk *marks) (workload, error) {
	switch name {
	case "paper-tables":
		return newPaperTables(mk)
	case "grade-http":
		return newGradeBench(seed, false, mk)
	case "cluster-grade":
		return newGradeBench(seed, true, mk)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func measure(w workload, mk *marks, name string, seed uint64, seconds float64, traced bool) (*report, error) {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  GOMAXPROCS %d  clients %d\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0), w.clients())

	setupTr := newTracer(traced)
	setups := make([]float64, w.setUps())
	for i := range setups {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setUp(setupTr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	setupS := median(setups)

	// One untimed round brings retention and the heap to their steady
	// state before timing starts.
	off := newTracer(false)
	for _, cls := range w.round() {
		if err := w.op(off, traceBefore, cls); err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
	}

	layers := map[string]float64{}
	dur := time.Duration(seconds * float64(time.Second))
	tr := newTracer(false)
	if traced {
		// Traced and untraced parts alternate over twice the time, so
		// the tracing overhead is measured under the same host load.
		dur *= 2
	}
	p, err := timedPhase(w, dur, tr, traced, layers)
	if err != nil {
		return nil, err
	}
	attempted, failed, errs := p.ops, p.failed, p.errs

	metrics := map[string]metric{}
	if traced {
		// Set-up layers report their total per set-up.
		setupSelf := setupTr.selfTime(func(int64) bool { return true })
		for _, k := range []string{"gen.generate", "irr.make"} {
			layers[k+"_ms"] = ms(setupSelf[k]) / float64(len(setups))
		}
		var on, offRates []float64
		for _, pt := range p.parts {
			if pt.traced {
				on = append(on, pt.rate)
			} else {
				offRates = append(offRates, pt.rate)
			}
		}
		untraced, tracedRate := median(offRates), median(on)
		layers["trace.untraced_ops_per_s"] = untraced
		layers["trace.traced_ops_per_s"] = tracedRate
		layers["trace.overhead_pct"] = 100 * (untraced - tracedRate) / untraced
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := writeSpans(path, setupTr, tr); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
		for _, l := range perLayer {
			// A layer the workload does not run reports 0.
			metrics[l.name] = metric{layers[l.name], l.unit}
		}
	} else {
		metrics = endToEnd(p, setupS)
	}

	fmt.Printf("setup_s samples: %s\n", floats(setups))
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Printf("  %-28s %14.6g (%d failed or wrong of %d attempted)\n", "error_rate",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	fmt.Printf("%d ops in %.3f s; per part (* = traced) ops/s and CPU ms/op:", p.ops, p.wall.Seconds())
	for _, pt := range p.parts {
		mark := ""
		if pt.traced {
			mark = "*"
		}
		fmt.Printf(" %s%.4g %.4g;", mark, pt.rate, pt.cpu)
	}
	fmt.Println()
	if !traced {
		above := len(p.lat) - int(math.Ceil(0.9*float64(len(p.lat))))
		fmt.Printf("%d latency samples, %d above p90; per input:", len(p.lat), above)
		for cls, l := range p.latOfCl {
			if len(l) > 0 {
				fmt.Printf(" %d: %d ops, p50 %.1f ms;", cls, len(l), median(l))
			}
		}
		fmt.Println()
	}
	for i, e := range errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "op failed:", e)
	}
	for _, m := range mk.list {
		fmt.Println("not comparable:", m)
	}
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// segments is how many parts a timed phase is cut into. Clients finish
// every op of a part before the next one starts, and the phase reports
// the median part's throughput and CPU cost, so a burst of interference
// from outside the process moves one part rather than the run.
const segments = 5

// timedPhase drives w with its closed-loop clients for at least d, in
// parts of whole rounds. With alternate, it runs twice as many parts and
// turns tr on for every second one.
func timedPhase(w workload, d time.Duration, tr *tracer, alternate bool, layers map[string]float64) (*phase, error) {
	if err := w.beginPhase(); err != nil {
		return nil, err
	}
	round := w.round()
	p := &phase{opsOfCl: make([]int, len(round)), latOfCl: make([][]float64, len(round))}
	parts := segments
	if alternate {
		parts *= 2
	}
	var (
		mu   sync.Mutex
		next int64
	)
	start := time.Now()
	for n := 1; n <= parts; n++ {
		tr.on = alternate && n%2 == 0
		partStart, partCPU, partFirst := time.Now(), cpuTime(), next
		stopped := false
		// take hands out the next op index, refusing once the part is
		// over and its ops form one or more whole rounds.
		take := func() (int64, bool) {
			mu.Lock()
			defer mu.Unlock()
			if stopped || (next > partFirst && next%int64(len(round)) == 0 &&
				time.Since(start) >= d*time.Duration(n)/time.Duration(parts)) {
				stopped = true
				return 0, false
			}
			i := next
			next++
			return i, true
		}
		var wg sync.WaitGroup
		for c := 0; c < w.clients(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i, ok := take()
					if !ok {
						return
					}
					cls := round[i%int64(len(round))]
					t0 := time.Now()
					err := w.op(tr, i, cls)
					l := time.Since(t0)
					mu.Lock()
					p.opsOfCl[cls]++
					p.latOfCl[cls] = append(p.latOfCl[cls], ms(l))
					if err != nil {
						p.failed++
						p.errs = append(p.errs, err.Error())
						l = time.Duration(math.MaxInt64) // a failed op misses every latency limit
					}
					p.lat = append(p.lat, l)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		ops := next - partFirst
		p.parts = append(p.parts, part{traced: tr.on, rate: float64(ops) / time.Since(partStart).Seconds(),
			cpu: ms(cpuTime()-partCPU) / float64(ops)})
		if tr.on {
			p.tracedOps += int(ops)
		}
	}
	tr.on = alternate
	p.wall = time.Since(start)
	p.ops = int(next)
	if err := w.endPhase(p, tr, layers); err != nil {
		return nil, err
	}
	return p, nil
}

// perLayer lists every per-layer metric with its unit; times are self
// time per op and counts are per op unless README.md says otherwise.
var perLayer = []struct{ name, unit string }{
	{"gen.generate_ms", "ms"}, {"irr.make_ms", "ms"},
	{"fault.collapse_ms", "ms"}, {"fsim.size_u_ms", "ms"}, {"fsim.size_u_vectors", "count"},
	{"adi.compute_ms", "ms"}, {"adi.order_ms", "ms"},
	{"tgen.generate_ms", "ms"}, {"tgen.tests", "count"}, {"atpg.calls", "count"},
	{"atpg.backtracks", "count"}, {"tgen.tests_per_atpg_call", "ratio"},
	{"circuit.parse_ms", "ms"}, {"circuit.compile_ms", "ms"}, {"fsim.good_ms", "ms"},
	{"fsim.parallel_drop_ms", "ms"}, {"fsim.parallel_ndetect_ms", "ms"}, {"fsim.parallel_nodrop_ms", "ms"},
	{"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"}, {"service.simulate_ms", "ms"},
	{"registry.circuit_hit_ratio", "ratio"}, {"registry.compiled_hit_ratio", "ratio"},
	{"registry.good_hit_ratio", "ratio"},
	{"client.submit_ms", "ms"}, {"client.stream_ms", "ms"}, {"client.result_ms", "ms"},
	{"service.wire_ms", "ms"}, {"wire.result_bytes", "B"}, {"wire.encode_ms", "ms"}, {"wire.decode_ms", "ms"},
	{"journal.appends", "count"}, {"journal.appends_per_fsync", "ratio"}, {"journal.bytes", "B"},
	{"journal.sync_ms", "ms"}, {"journal.encode_ms", "ms"},
	{"cluster.subjobs", "count"}, {"cluster.attempts_per_shard", "ratio"},
	{"cluster.shards_stolen", "count"}, {"cluster.shards_speculated", "count"},
	{"cluster.shard_retries", "count"}, {"cluster.backend_run_ms", "ms"}, {"cluster.merge_ms", "ms"},
	{"cluster.overhead_ms", "ms"}, {"cluster.merge_call_ms", "ms"},
	{"trace.untraced_ops_per_s", "1/s"}, {"trace.traced_ops_per_s", "1/s"}, {"trace.overhead_pct", "%"},
}

func endToEnd(p *phase, setupS float64) map[string]metric {
	lat := make([]float64, len(p.lat))
	for i, l := range p.lat {
		lat[i] = ms(l)
	}
	sort.Float64s(lat)
	var rates, cpus []float64
	for _, pt := range p.parts {
		rates = append(rates, pt.rate)
		cpus = append(cpus, pt.cpu)
	}
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"ops_per_s":      {median(rates), "1/s"},
		"latency_p50_ms": {quantile(lat, 0.5), "ms"},
		"latency_p90_ms": {quantile(lat, 0.9), "ms"},
		"cpu_ms_per_op":  {median(cpus), "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
}

// quantile interpolates linearly between the order statistics of the
// sorted sample xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	h := q * float64(len(xs)-1)
	lo := int(h)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still reachable after a full collection, in
// MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
}
