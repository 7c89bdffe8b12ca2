package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/eda-go/adifo"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/cluster"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/journal"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/prng"
	"github.com/eda-go/adifo/internal/service"
)

// gradeSizes are the netlist sizes, those of irs1196 and irs5378. A
// run grades gradeVariants netlists of each size, generated from the
// workload seed without an irredundancy pass (they build in
// milliseconds); several per size average out how much one generated
// netlist's testability moves the work.
var gradeSizes = []gen.Config{
	{Name: "g1196", Inputs: 32, Gates: 546},
	{Name: "g5378", Inputs: 214, Gates: 2400, GuardFrac: 0.05},
}

const gradeVariants = 3

// gradeClass is one job class: a netlist size, a dropping policy and a
// random pattern count.
type gradeClass struct {
	size     int
	mode     string
	n        int
	patterns int
}

// gradeClasses cover the three dropping policies. Nodrop classes use
// at least 256 patterns, so the automatic width rule picks the wide
// kernels. By op latency the drop class on the small netlists is the
// fastest and nodrop on the large ones the slowest; with one op of each
// class per netlist in a round, p50 falls inside the middle classes and
// p90 inside the slowest, 10 points of cumulative weight from a class
// boundary.
var gradeClasses = []gradeClass{
	{size: 1, mode: "drop", patterns: 2048},
	{size: 1, mode: "ndetect", n: 4, patterns: 512},
	{size: 1, mode: "nodrop", patterns: 256},
	{size: 0, mode: "nodrop", patterns: 512},
	{size: 0, mode: "drop", patterns: 4096},
}

const (
	gradeClients  = 2
	clusterNodes  = 3
	shardsPerNode = 4
	// retainedJobs bounds the finished jobs (and results) every server
	// keeps, so memory stops growing after the first ops of a run
	// instead of following its op count. It covers the sub-jobs of the
	// ops in flight.
	retainedJobs = 16
	// warmShards cuts the warm-up jobs down to one shard of the fault
	// list: the registry builds everything a full job needs, but the
	// simulation stays small.
	warmShards = 64
)

// gradeInput is one class on one netlist, the unit an op grades.
type gradeInput struct {
	cls  int
	spec adifo.JobSpec
	ref  *reference
}

// gradeBench runs grading jobs over the v1 wire: grade-http against one
// adifod engine with a durable journal, cluster-grade through the
// cluster coordinator over three engines.
type gradeBench struct {
	cluster bool
	mk      *marks
	nets    int // distinct netlists
	inputs  []gradeInput
	order   []int
	hc      *http.Client

	// The system under test, rebuilt by every set-up.
	grader   adifo.Grader
	cg       *adifo.ClusterGrader
	backends []*adifo.LocalGrader
	servers  []*httptest.Server
	byURL    map[string]*adifo.LocalGrader
	journal  string

	mu      sync.Mutex
	traced  opRecord   // summed over the traced ops
	enc     []encoding // each input's result in the round before the timed phase
	before  []adifo.GraderStats
	metrics []map[string]float64 // per server /metrics, then coordinator
}

// encoding is the length and hash of a result's wire encoding.
type encoding struct {
	n   int
	sum [sha256.Size]byte
}

// opRecord is what a traced op learned from the wire, in seconds.
type opRecord struct {
	queue, run, simulate float64 // summed over sub-jobs on the cluster
	longestSub, merge    float64
	attempts, shards     int
	// wire is the client's submit + stream + result time minus the
	// server's queue wait and run (grade-http), or minus the longest
	// sub-job run and the merge (cluster-grade).
	wire float64
}

func (r *opRecord) add(o opRecord) {
	r.queue += o.queue
	r.run += o.run
	r.simulate += o.simulate
	r.longestSub += o.longestSub
	r.merge += o.merge
	r.attempts += o.attempts
	r.shards += o.shards
	r.wire += o.wire
}

// reference is the sequential simulator's answer for one input,
// computed once before the first set-up.
type reference struct {
	faults, detected, vectors int
	firstDet, detCount, ndet  []int
	det                       []*logic.Bitset // nil in drop mode
}

func newGradeBench(seed uint64, clustered bool, mk *marks) (*gradeBench, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	// Every sub-job of a cluster op may hold a connection per backend;
	// keep them all idle between ops instead of redialling.
	tr.MaxIdleConnsPerHost = 64
	b := &gradeBench{cluster: clustered, mk: mk, hc: &http.Client{Transport: tr}}
	src := prng.New(seed)
	benches := map[string]string{}
	for _, size := range gradeSizes {
		for v := 0; v < gradeVariants; v++ {
			cfg := size
			cfg.Name = fmt.Sprintf("%s-%d", size.Name, v)
			cfg.Seed = src.Uint64()
			b.nets++
			benches[cfg.Name] = circuit.BenchString(gen.Generate(cfg))
		}
	}
	for v := 0; v < gradeVariants; v++ {
		for cls, gc := range gradeClasses {
			name := fmt.Sprintf("%s-%d", gradeSizes[gc.size].Name, v)
			spec := adifo.JobSpec{
				Bench:    benches[name],
				Name:     name,
				Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: gc.patterns, Seed: src.Uint64()}},
				Mode:     gc.mode,
				N:        gc.n,
			}
			ref, err := newReference(spec)
			if err != nil {
				return nil, err
			}
			b.order = append(b.order, len(b.inputs))
			b.inputs = append(b.inputs, gradeInput{cls: cls, spec: spec, ref: ref})
		}
	}
	b.enc = make([]encoding, len(b.inputs))
	return b, nil
}

// newReference runs the sequential reference simulator on the inputs
// the server will parse and expand.
func newReference(spec adifo.JobSpec) (*reference, error) {
	c, err := circuit.ParseBench(spec.Name, strings.NewReader(spec.Bench))
	if err != nil {
		return nil, err
	}
	fl := fault.CollapsedUniverse(c)
	mode, err := fsim.ParseMode(spec.Mode)
	if err != nil {
		return nil, err
	}
	ps := logic.RandomPatterns(c.NumInputs(), spec.Patterns.Random.N, prng.New(spec.Patterns.Random.Seed))
	res := fsim.Run(fl, ps, fsim.Options{Mode: mode, N: spec.N})
	return &reference{faults: fl.Len(), detected: res.DetectedCount(), vectors: res.VectorsUsed,
		firstDet: res.FirstDet, detCount: res.DetCount, ndet: res.Ndet, det: res.Det}, nil
}

// check compares a job result with the reference: detected count,
// vectors used, ndet, and per fault the first detection, detection
// count and detection set.
func (r *reference) check(got *adifo.JobResult) error {
	switch {
	case got.Faults != r.faults || len(got.PerFault) != r.faults:
		return fmt.Errorf("%d faults (%d per-fault rows), reference %d", got.Faults, len(got.PerFault), r.faults)
	case got.Detected != r.detected:
		return fmt.Errorf("detected %d, reference %d", got.Detected, r.detected)
	case got.VectorsUsed != r.vectors:
		return fmt.Errorf("vectors used %d, reference %d", got.VectorsUsed, r.vectors)
	case !slices.Equal(got.Ndet, r.ndet):
		return errors.New("ndet differs from the reference")
	}
	for f, fr := range got.PerFault {
		if fr.F != f || fr.FirstDet != r.firstDet[f] || fr.DetCount != r.detCount[f] {
			return fmt.Errorf("fault %d: first detection %d count %d, reference %d and %d",
				f, fr.FirstDet, fr.DetCount, r.firstDet[f], r.detCount[f])
		}
		if !r.sameDet(f, fr.Det) {
			return fmt.Errorf("fault %d: detection set differs from the reference", f)
		}
	}
	return nil
}

// sameDet reports whether det lists, in increasing order, exactly the
// vectors of fault f's reference detection set.
func (r *reference) sameDet(f int, det []int) bool {
	if r.det == nil {
		return len(det) == 0
	}
	want := r.det[f]
	if len(det) != want.Count() {
		return false
	}
	for k, v := range det {
		if v < 0 || v >= want.Len() || !want.Test(v) || k > 0 && v <= det[k-1] {
			return false
		}
	}
	return true
}

func (b *gradeBench) clients() int { return gradeClients }
func (b *gradeBench) round() []int { return b.order }
func (b *gradeBench) setUps() int  { return 5 }

// setUp starts the servers and warms every registry, so timed ops take
// the cache-hit path and the set-up carries the miss path (parse,
// collapse, compile, good machine).
func (b *gradeBench) setUp(tr *tracer) error {
	root := tr.begin(-1, -1, "setup")
	defer tr.end(root)
	cfg := adifo.GraderConfig{MaxRetainedJobs: retainedJobs, Logger: obs.Nop()}
	b.byURL = map[string]*adifo.LocalGrader{}
	nodes := 1
	if b.cluster {
		nodes = clusterNodes
	} else {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(buildDir, "journal-")
		if err != nil {
			return err
		}
		b.journal, cfg.JournalDir = dir, dir
	}
	var urls []string
	s := tr.begin(-1, root, "servers.start")
	for i := 0; i < nodes; i++ {
		g, err := adifo.OpenLocalGrader(cfg)
		if err != nil {
			return err
		}
		srv := httptest.NewServer(g.Handler())
		b.backends = append(b.backends, g)
		b.servers = append(b.servers, srv)
		b.byURL[srv.URL] = g
		urls = append(urls, srv.URL)
	}
	if b.cluster {
		cg, err := adifo.NewClusterGrader(urls, adifo.ClusterOptions{
			HTTPClient:       b.hc,
			MaxRetainedJobs:  retainedJobs,
			ShardsPerBackend: shardsPerNode,
			// The membership re-probe runs on a timer whatever the
			// load (every 3 s by default), so it would fire inside every
			// timed phase. Stealing and speculation keep their default
			// 2 s straggler age, which a healthy op never reaches.
			ReprobeInterval: time.Hour,
			Logger:          obs.Nop(),
		})
		if err != nil {
			return err
		}
		b.cg, b.grader = cg, cg
	} else {
		b.grader = adifo.NewRemoteGrader(urls[0], b.hc)
	}
	tr.end(s)

	// Warm every server directly with a one-shard job per input, then
	// run one whole op through the front end.
	ctx := context.Background()
	s = tr.begin(-1, root, "warm-up")
	defer tr.end(s)
	for _, url := range urls {
		g := adifo.NewRemoteGrader(url, b.hc)
		for _, in := range b.inputs {
			spec := in.spec
			spec.FaultShard = &adifo.FaultShard{Index: 0, Count: warmShards}
			id, err := g.Submit(ctx, spec)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if st, err := g.Stream(ctx, id, nil); err != nil || st.State != adifo.JobDone {
				return fmt.Errorf("warm-up job %s: %v %s", id, err, st.Error)
			}
		}
	}
	if err := b.op(newTracer(false), traceSetUp, len(b.inputs)-1); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return b.checkWarm()
}

// checkWarm fails unless every server holds every netlist, compiled
// form and good machine the timed ops will ask for.
func (b *gradeBench) checkWarm() error {
	goods := 0
	for _, in := range b.inputs {
		if in.spec.Mode != "drop" {
			goods++
		}
	}
	for i, g := range b.backends {
		st, err := g.Stats(context.Background())
		if err != nil {
			return err
		}
		r := st.Registry
		if r.Circuits != b.nets || r.Compiled != b.nets || r.Goods != goods {
			return fmt.Errorf("server %d is not warm: %d circuits, %d compiled forms, %d good machines; want %d, %d, %d",
				i, r.Circuits, r.Compiled, r.Goods, b.nets, b.nets, goods)
		}
	}
	return nil
}

func (b *gradeBench) close() {
	if b.cg != nil {
		b.cg.Close()
		b.cg = nil
	}
	for _, s := range b.servers {
		s.Close()
	}
	for _, g := range b.backends {
		g.Close()
	}
	b.servers, b.backends, b.grader = nil, nil, nil
	b.hc.CloseIdleConnections()
	if b.journal != "" {
		os.RemoveAll(b.journal)
		b.journal = ""
	}
}

func (b *gradeBench) op(tr *tracer, trace int64, input int) error {
	_, err := b.grade(tr, trace, input)
	return err
}

// grade submits one job, streams it to its terminal state, fetches the
// result and checks it against the reference.
func (b *gradeBench) grade(tr *tracer, trace int64, input int) (*adifo.JobResult, error) {
	in := b.inputs[input]
	ctx := context.Background()
	root := tr.begin(trace, -1, "op")
	defer tr.end(root)
	t0 := time.Now()
	s := tr.begin(trace, root, "client.submit")
	id, err := b.grader.Submit(ctx, in.spec)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	s = tr.begin(trace, root, "client.stream")
	st, err := b.grader.Stream(ctx, id, nil)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", id, err)
	}
	if st.State != adifo.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	s = tr.begin(trace, root, "client.result")
	res, err := b.grader.Result(ctx, id)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("result %s: %w", id, err)
	}
	client := time.Since(t0)
	s = tr.begin(trace, root, "verify")
	err = in.ref.check(res)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s %s job %s: %w", in.spec.Name, in.spec.Mode, id, err)
	}
	switch {
	case tr.on:
		err = b.record(id, res, client)
	case trace == traceBefore || trace == traceAfter:
		err = b.checkEncoding(trace, input, res)
	}
	return res, err
}

// checkEncoding records the encoding of an input's result in the round
// before the timed phase and compares it in the round after: one
// outcome must encode to the same bytes. The timed ops skip it, so no
// op pays for encoding its result a second time.
func (b *gradeBench) checkEncoding(trace int64, input int, res *adifo.JobResult) error {
	// The fields that name the job rather than its outcome differ
	// between runs of one input.
	cp := *res
	cp.ID, cp.TraceID, cp.Timing = "", "", nil
	raw, err := json.Marshal(&cp)
	if err != nil {
		return err
	}
	enc := encoding{len(raw), sha256.Sum256(raw)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if trace == traceBefore {
		b.enc[input] = enc
	} else if enc != b.enc[input] {
		in := b.inputs[input].spec
		b.mk.add("wire.result_bytes", "%s %s: the result encodes differently after the timed phase (%d bytes, %d before)",
			in.Name, in.Mode, enc.n, b.enc[input].n)
	}
	return nil
}

// record adds what the wire says about a traced op's time: the job's
// timing, and on the cluster every sub-job's timing on its backend.
func (b *gradeBench) record(id string, res *adifo.JobResult, client time.Duration) error {
	if res.Timing == nil {
		return fmt.Errorf("job %s: result carries no timing", id)
	}
	rec := opRecord{merge: res.Timing.Phases[adifo.PhaseMerge]}
	if !b.cluster {
		rec.queue, rec.run = res.Timing.QueueWaitSeconds, res.Timing.RunSeconds
		rec.simulate = res.Timing.Phases[adifo.PhaseSimulate]
		rec.wire = client.Seconds() - rec.queue - rec.run
	} else {
		shards, err := b.cg.Shards(id)
		if err != nil {
			return err
		}
		for _, sh := range shards {
			st, err := b.byURL[sh.Backend].Status(context.Background(), sh.RemoteID)
			if err == nil && st.Timing == nil {
				err = errors.New("no timing")
			}
			if err != nil {
				return fmt.Errorf("sub-job %s: %w", sh.RemoteID, err)
			}
			rec.queue += st.Timing.QueueWaitSeconds
			rec.run += st.Timing.RunSeconds
			rec.simulate += st.Timing.Phases[adifo.PhaseSimulate]
			rec.longestSub = max(rec.longestSub, st.Timing.RunSeconds)
			rec.attempts += sh.Attempts
			rec.shards++
		}
		rec.wire = client.Seconds() - rec.longestSub - rec.merge
	}
	b.mu.Lock()
	b.traced.add(rec)
	b.mu.Unlock()
	return nil
}

// beginPhase snapshots /v1/stats and /metrics of every server (and the
// coordinator's /metrics).
func (b *gradeBench) beginPhase() error {
	var err error
	b.before, b.metrics, err = b.counters()
	return err
}

func (b *gradeBench) counters() ([]adifo.GraderStats, []map[string]float64, error) {
	ctx := context.Background()
	var stats []adifo.GraderStats
	var mets []map[string]float64
	for _, srv := range b.servers {
		st, err := adifo.NewRemoteGrader(srv.URL, b.hc).Stats(ctx)
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, st)
		m, err := scrape(b.hc, srv.URL+"/metrics")
		if err != nil {
			return nil, nil, err
		}
		mets = append(mets, m)
	}
	if b.cg != nil {
		rec := httptest.NewRecorder()
		b.cg.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		mets = append(mets, parseMetrics(rec.Body.String()))
	}
	return stats, mets, nil
}

// endPhase checks the counters that must hold exactly for every run
// and, for the traced phase, derives the per-layer metrics.
func (b *gradeBench) endPhase(ph *phase, tr *tracer, layers map[string]float64) error {
	after, mets, err := b.counters()
	if err != nil {
		return err
	}
	ops := float64(ph.ops)
	hit := func(pick func(r service.RegistryStats) (hits, misses uint64)) float64 {
		worst := 1.0
		for i := range after {
			h1, m1 := pick(after[i].Registry)
			h0, m0 := pick(b.before[i].Registry)
			if n := (h1 - h0) + (m1 - m0); n > 0 {
				worst = min(worst, float64(h1-h0)/float64(n))
			}
		}
		return worst
	}
	ratios := map[string]float64{
		"registry.circuit_hit_ratio":  hit(func(r service.RegistryStats) (uint64, uint64) { return r.CircuitHits, r.CircuitMisses }),
		"registry.compiled_hit_ratio": hit(func(r service.RegistryStats) (uint64, uint64) { return r.CompiledHits, r.CompiledMisses }),
		"registry.good_hit_ratio":     hit(func(r service.RegistryStats) (uint64, uint64) { return r.GoodHits, r.GoodMisses }),
	}
	for n, v := range ratios {
		if v != 1 {
			b.mk.add(n, "%.4f on the worst server in the timed phase, want 1", v)
		}
	}
	var subjobs uint64
	for i := range after {
		subjobs += after[i].JobsSubmitted - b.before[i].JobsSubmitted
	}
	delta := func(server int, name string) float64 { return mets[server][name] - b.metrics[server][name] }
	clusterCounts := map[string]float64{}
	if b.cluster {
		co := len(mets) - 1
		clusterCounts["cluster.shards_stolen"] = delta(co, "adifo_cluster_shards_stolen_total")
		clusterCounts["cluster.shards_speculated"] = delta(co, "adifo_cluster_shards_speculated_total")
		clusterCounts["cluster.shard_retries"] = delta(co, "adifo_cluster_shard_retries_total")
		for n, v := range clusterCounts {
			if v != 0 {
				b.mk.add(n, "%g in the timed phase, want 0", v)
			}
		}
		if want := uint64(ph.ops * clusterNodes * shardsPerNode); subjobs != want {
			b.mk.add("cluster.subjobs", "%d sub-jobs for %d ops, want %d", subjobs, ph.ops, want)
		}
	}
	// One more untimed round, after the counters: every input's result
	// must encode as it did in the round before the timed phase.
	for i := range b.inputs {
		if err := b.op(newTracer(false), traceAfter, i); err != nil {
			return fmt.Errorf("round after the timed phase: %w", err)
		}
	}
	// The integer sum keeps the mix-weighted mean identical for any
	// number of rounds.
	var resultBytes int64
	for i, e := range b.enc {
		resultBytes += int64(e.n) * int64(ph.opsOfCl[i])
	}
	if !tr.on {
		return nil
	}

	for n, v := range ratios {
		layers[n] = v
	}
	for n, v := range clusterCounts {
		layers[n] = v / ops
	}
	layers["wire.result_bytes"] = float64(resultBytes) / ops
	// Spans and wire timings exist for the traced ops only.
	traced := float64(ph.tracedOps)
	self := tr.selfTime(func(trace int64) bool { return trace >= 0 })
	for _, n := range []string{"client.submit", "client.stream", "client.result"} {
		layers[n+"_ms"] = ms(self[n]) / traced
	}
	b.mu.Lock()
	sum := b.traced
	b.mu.Unlock()
	layers["service.queue_wait_ms"] = 1000 * sum.queue / traced
	layers["service.run_ms"] = 1000 * sum.run / traced
	layers["service.simulate_ms"] = 1000 * sum.simulate / traced
	if b.cluster {
		layers["cluster.subjobs"] = float64(subjobs) / ops
		layers["cluster.attempts_per_shard"] = float64(sum.attempts) / float64(sum.shards)
		layers["cluster.backend_run_ms"] = 1000 * sum.longestSub / traced
		layers["cluster.merge_ms"] = 1000 * sum.merge / traced
		layers["cluster.overhead_ms"] = 1000 * sum.wire / traced
	} else {
		layers["service.wire_ms"] = 1000 * sum.wire / traced
		j := func(name string) float64 { return delta(0, name) }
		layers["journal.appends"] = j("adifo_journal_appends_total") / ops
		if syncs := j("adifo_journal_syncs_total"); syncs > 0 {
			layers["journal.appends_per_fsync"] = j("adifo_journal_appends_total") / syncs
		}
		layers["journal.bytes"] = j("adifo_journal_appended_bytes_total") / ops
		layers["journal.sync_ms"] = 1000 * j("adifo_journal_sync_seconds_total") / ops
	}
	return b.directCalls(ph, tr, layers)
}

// directCalls times the layers the wire cannot see by calling their
// public functions on each class's inputs (its first netlist) and on
// the result of a fresh op, after the timed phase. Each is reported per
// call, weighted by the class mix (fsim.good and fsim.parallel_<mode>
// over the classes that make that call).
func (b *gradeBench) directCalls(ph *phase, tr *tracer, layers map[string]float64) error {
	const reps = 2
	weights := map[string]float64{}
	classOps := make([]float64, len(gradeClasses))
	for i, in := range b.inputs {
		classOps[in.cls] += float64(ph.opsOfCl[i])
	}
	for i, in := range b.inputs[:len(gradeClasses)] {
		// On the cluster the fresh op's sub-jobs are still retained, so
		// their results can be fetched for the merge.
		res, err := b.grade(newTracer(false), traceDirect, i)
		if err != nil {
			return err
		}
		spec, w := in.spec, classOps[in.cls]
		timed := func(name string, fn func() error) {
			if err != nil {
				return
			}
			s := tr.begin(int64(-10-i), -1, name)
			t0 := time.Now()
			for r := 0; r < reps && err == nil; r++ {
				err = fn()
			}
			d := time.Since(t0)
			tr.end(s)
			if err != nil {
				err = fmt.Errorf("%s: %w", name, err)
			}
			layers[name+"_ms"] += ms(d) / reps * w
			weights[name] += w
		}
		var (
			c    *circuit.Circuit
			cc   *circuit.Compiled
			fl   *fault.List
			good *fsim.Good
			raw  []byte
		)
		timed("circuit.parse", func() (err error) {
			c, err = circuit.ParseBench(spec.Name, strings.NewReader(spec.Bench))
			return err
		})
		if err != nil {
			return err
		}
		timed("circuit.compile", func() error { cc = circuit.Compile(c); return nil })
		timed("fault.collapse", func() error { fl = fault.CollapsedUniverse(c); return nil })
		ps := logic.RandomPatterns(c.NumInputs(), spec.Patterns.Random.N, prng.New(spec.Patterns.Random.Seed))
		mode, _ := fsim.ParseMode(spec.Mode)
		if mode != fsim.Drop {
			// The engine caches the good machine only for runs that
			// visit every block; drop runs evaluate it lazily.
			timed("fsim.good", func() error { good = fsim.ComputeGoodCompiled(cc, ps); return nil })
		}
		timed("fsim.parallel_"+spec.Mode, func() error {
			r := fsim.RunParallelWith(fl, ps, fsim.ParallelOptions{Options: fsim.Options{Mode: mode, N: spec.N},
				Workers: runtime.GOMAXPROCS(0), Compiled: cc, Good: good})
			if r.DetectedCount() != in.ref.detected {
				return errors.New("detected count differs from the reference")
			}
			return nil
		})
		timed("wire.encode", func() (err error) { raw, err = json.Marshal(res); return err })
		timed("wire.decode", func() error { var r adifo.JobResult; return json.Unmarshal(raw, &r) })
		timed("journal.encode", func() error {
			_, err := journal.EncodeFrame(journal.Record{Type: journal.TypeFinished, Job: res.ID,
				State: adifo.JobDone, Result: raw, At: time.Now().UnixNano()})
			return err
		})
		if err != nil {
			return err
		}
		if b.cluster {
			var shards []*service.JobResult
			if shards, err = b.shardResults(res.ID); err != nil {
				return err
			}
			timed("cluster.merge_call", func() error {
				_, err := cluster.MergeResults(res.ID, shards)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	for name, w := range weights {
		layers[name+"_ms"] /= w
	}
	return nil
}

// shardResults fetches a cluster job's sub-job results from the
// backends that ran them.
func (b *gradeBench) shardResults(id string) ([]*service.JobResult, error) {
	shards, err := b.cg.Shards(id)
	if err != nil {
		return nil, err
	}
	var out []*service.JobResult
	for _, sh := range shards {
		r, err := b.byURL[sh.Backend].Result(context.Background(), sh.RemoteID)
		if err != nil {
			return nil, fmt.Errorf("sub-job %s: %w", sh.RemoteID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// scrape fetches a Prometheus text exposition.
func scrape(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body)), nil
}

// parseMetrics sums each metric's samples over its label sets.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		var v float64
		if _, err := fmt.Sscan(line[sp+1:], &v); err == nil {
			out[name] += v
		}
	}
	return out
}
