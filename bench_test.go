// Benchmarks regenerating the paper's evaluation: one benchmark per
// table and figure. Run them with
//
//	go test -bench=. -benchmem
//
// By default the generation-heavy experiments (Tables 5-7, Figure 1)
// run on the paper's twelve small and medium circuits, skipping
// irs5378 and irs13207; set ADIFO_SUITE=full to include them, or
// ADIFO_SUITE=small for a three-circuit smoke run. Table text is
// printed once per benchmark so the run doubles as a report.
package adifo_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eda-go/adifo"
	"github.com/eda-go/adifo/internal/experiments"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/obs"
	"github.com/eda-go/adifo/internal/service"
)

// benchSuite resolves the circuit suite from ADIFO_SUITE.
func benchSuite() []gen.SuiteCircuit {
	switch os.Getenv("ADIFO_SUITE") {
	case "full":
		return gen.PaperSuite()
	case "small":
		return gen.SmallSuite()
	default:
		full := gen.PaperSuite()
		return full[:len(full)-2] // all but irs5378 and irs13207
	}
}

var (
	runsOnce sync.Once
	runsVal  []*experiments.CircuitRuns
	runsErr  error
)

// sharedRuns executes the Table 5/6/7 generation runs once per test
// binary; the three table benchmarks are projections of the same
// runs, exactly as in the paper.
func sharedRuns() ([]*experiments.CircuitRuns, error) {
	runsOnce.Do(func() {
		var setups []*experiments.Setup
		if setups, runsErr = experiments.PrepareSuite(benchSuite()); runsErr == nil {
			runsVal = experiments.RunSuite(setups)
		}
	})
	return runsVal, runsErr
}

// BenchmarkTable1 regenerates the worked example: ndet(u) for every
// input vector of the lion-style circuit.
func BenchmarkTable1(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		var err error
		_, text, err = experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkTable4 regenerates the ADI spread table: vector-set size,
// ADImin, ADImax and their ratio per circuit.
func BenchmarkTable4(b *testing.B) {
	suite := benchSuite()
	var text string
	for i := 0; i < b.N; i++ {
		setups, err := experiments.PrepareSuite(suite)
		if err != nil {
			b.Fatal(err)
		}
		_, text = experiments.Table4(setups)
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkTable5 regenerates the test-set size comparison across the
// orig, dynm, 0dynm and incr0 fault orders.
func BenchmarkTable5(b *testing.B) {
	runs, err := sharedRuns()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		_, text = experiments.Table5(runs)
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkTable6 regenerates the relative run-time table.
func BenchmarkTable6(b *testing.B) {
	runs, err := sharedRuns()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		_, text = experiments.Table6(runs)
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkTable7 regenerates the coverage-curve steepness (AVE)
// table.
func BenchmarkTable7(b *testing.B) {
	runs, err := sharedRuns()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var text string
	for i := 0; i < b.N; i++ {
		_, text = experiments.Table7(runs)
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkFigure1 regenerates the fault coverage curve plot.
func BenchmarkFigure1(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		var err error
		_, text, err = experiments.Figure1(experiments.Figure1Circuit, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(text)
}

// BenchmarkGenerationRuns measures the end-to-end generation runs
// themselves (prepare + four orders per circuit); Tables 5-7 above
// only project its output.
func BenchmarkGenerationRuns(b *testing.B) {
	suite := gen.SmallSuite()
	for i := 0; i < b.N; i++ {
		setups, err := experiments.PrepareSuite(suite)
		if err != nil {
			b.Fatal(err)
		}
		experiments.RunSuite(setups)
	}
}

// BenchmarkServiceThroughput measures the fault-grading service end
// to end (library-level, no HTTP): repeated no-drop grading jobs over
// a mix of circuits and pattern seeds, flowing through the registry
// caches and the sharded parallel simulator. After the first pass the
// circuit and good-machine caches are warm, which is exactly the
// serving regime the service exists for; the per-op time is the
// steady-state cost of one grading request.
func BenchmarkServiceThroughput(b *testing.B) {
	svc := service.New(service.Config{MaxConcurrentJobs: 4})
	specs := []service.JobSpec{
		{Circuit: "c17", Mode: "nodrop", Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 512, Seed: 1}}},
		{Circuit: "s27", Mode: "nodrop", Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 512, Seed: 2}}},
		{Circuit: "lion", Mode: "nodrop", Patterns: service.PatternSpec{Exhaustive: true}},
		{Circuit: "irs208", Mode: "nodrop", Patterns: service.PatternSpec{Random: &service.RandomSpec{N: 512, Seed: 3}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]string, len(specs))
		for k, spec := range specs {
			id, err := svc.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			ids[k] = id
		}
		for _, id := range ids {
			// Block on the progress stream instead of polling, so the
			// harness does not steal CPU from the simulation workers it
			// is measuring.
			svc.Stream(context.Background(), id, nil)
			st, ok := svc.Status(id)
			if !ok {
				b.Fatalf("job %s vanished", id)
			}
			if st.State != service.StateDone {
				b.Fatalf("job %s %s: %s", id, st.State, st.Error)
			}
		}
	}
	b.StopTimer()
	st := svc.Stats()
	b.ReportMetric(float64(len(specs)), "jobs/op")
	fmt.Printf("service caches after %d jobs: %d/%d circuit hits, %d/%d good hits\n",
		st.JobsDone,
		st.Registry.CircuitHits, st.Registry.CircuitHits+st.Registry.CircuitMisses,
		st.Registry.GoodHits, st.Registry.GoodHits+st.Registry.GoodMisses)
	svc.Close()
}

// BenchmarkClusterGrade measures the fault-sharded cluster path end
// to end: three in-process adifod backends behind real HTTP servers, a
// ClusterGrader fanning each job out through the shard work queue
// (ShardsPerBackend shards per backend), and the merged result
// streamed back. The delta against
// BenchmarkServiceThroughput is the price of the wire plus the merge —
// the simulation work per job is identical by construction
// (bit-identical results), so this benchmark tracks coordination
// overhead over time.
func BenchmarkClusterGrade(b *testing.B) {
	quiet := obs.Nop()
	urls := make([]string, 3)
	for i := range urls {
		g := adifo.NewLocalGrader(adifo.GraderConfig{MaxConcurrentJobs: 4, Logger: quiet})
		srv := httptest.NewServer(g.Handler())
		defer srv.Close()
		defer g.Close()
		urls[i] = srv.URL
	}
	cg, err := adifo.NewClusterGrader(urls, adifo.ClusterOptions{Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer cg.Close()

	ctx := context.Background()
	specs := []adifo.JobSpec{
		{Circuit: "c17", Mode: "nodrop", Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 512, Seed: 1}}},
		{Circuit: "s27", Mode: "nodrop", Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 512, Seed: 2}}},
		{Circuit: "lion", Mode: "nodrop", Patterns: adifo.PatternSpec{Exhaustive: true}},
		{Circuit: "irs208", Mode: "nodrop", Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 512, Seed: 3}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]string, len(specs))
		for k, spec := range specs {
			id, err := cg.Submit(ctx, spec)
			if err != nil {
				b.Fatal(err)
			}
			ids[k] = id
		}
		for _, id := range ids {
			st, err := cg.Stream(ctx, id, nil)
			if err != nil {
				b.Fatal(err)
			}
			if st.State != adifo.JobDone {
				b.Fatalf("cluster job %s %s: %s", id, st.State, st.Error)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(specs)), "jobs/op")
}

// BenchmarkClusterGradeStraggler is BenchmarkClusterGrade with one of
// the three backends turned into a straggler: a proxy throttles its
// progress streams to a trickle while probes, submits and cancels stay
// fast, so the backend looks healthy and only its shard work drags.
// The coordinator's speculative duplicates, launched when each job's
// straggler timer fires, are what keep this number near
// BenchmarkClusterGrade instead of near the straggler's own pace — the
// gap between the two benchmarks tracks the tail-latency machinery
// over time.
func BenchmarkClusterGradeStraggler(b *testing.B) {
	quiet := obs.Nop()
	urls := make([]string, 3)
	for i := range urls {
		g := adifo.NewLocalGrader(adifo.GraderConfig{MaxConcurrentJobs: 4, Logger: quiet})
		srv := httptest.NewServer(g.Handler())
		defer srv.Close()
		defer g.Close()
		urls[i] = srv.URL
	}
	// Wrap the last backend in a trickling stream proxy: every line
	// after the first waits 10ms, roughly 10x a healthy block cadence.
	backend := urls[2]
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		out.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(out)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		if !strings.HasSuffix(r.URL.Path, "/stream") || resp.StatusCode != http.StatusOK {
			io.Copy(w, resp.Body) //nolint:errcheck
			return
		}
		fl, _ := w.(http.Flusher)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		first := true
		for sc.Scan() {
			if !first {
				select {
				case <-time.After(10 * time.Millisecond):
				case <-r.Context().Done():
					return
				}
			}
			first = false
			w.Write(sc.Bytes())   //nolint:errcheck
			w.Write([]byte{'\n'}) //nolint:errcheck
			if fl != nil {
				fl.Flush()
			}
		}
	}))
	defer proxy.Close()
	urls[2] = proxy.URL

	cg, err := adifo.NewClusterGrader(urls, adifo.ClusterOptions{
		Logger:         quiet,
		StragglerAfter: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cg.Close()

	ctx := context.Background()
	specs := []adifo.JobSpec{
		{Circuit: "c17", Mode: "nodrop", Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 512, Seed: 1}}},
		{Circuit: "s27", Mode: "nodrop", Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 512, Seed: 2}}},
		{Circuit: "lion", Mode: "nodrop", Patterns: adifo.PatternSpec{Exhaustive: true}},
		{Circuit: "irs208", Mode: "nodrop", Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 512, Seed: 3}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]string, len(specs))
		for k, spec := range specs {
			id, err := cg.Submit(ctx, spec)
			if err != nil {
				b.Fatal(err)
			}
			ids[k] = id
		}
		for _, id := range ids {
			st, err := cg.Stream(ctx, id, nil)
			if err != nil {
				b.Fatal(err)
			}
			if st.State != adifo.JobDone {
				b.Fatalf("cluster job %s %s: %s", id, st.State, st.Error)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(specs)), "jobs/op")
}

// BenchmarkAblation runs the design-choice ablations of DESIGN.md:
// static vs dynamic orders, n-detection ADI estimation, and a reduced
// vector budget, on the small suite.
func BenchmarkAblation(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		setups, err := experiments.PrepareSuite(gen.SmallSuite())
		if err != nil {
			b.Fatal(err)
		}
		_, text = experiments.Ablation(setups)
	}
	b.StopTimer()
	fmt.Println(text)
}
