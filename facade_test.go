// Facade tests: drive the whole pipeline — load, simulate, ADI,
// order, generate, grade locally and remotely, cancel — through
// exported adifo identifiers only, exactly as a program outside the
// module would (this file is package adifo_test and imports nothing
// from internal/).
package adifo_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eda-go/adifo"
	"github.com/eda-go/adifo/internal/obs"
)

func TestFacadePipeline(t *testing.T) {
	ctx := context.Background()

	c, err := adifo.LoadCircuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := adifo.Faults(c)
	if faults.Len() != 22 {
		t.Fatalf("c17 collapsed faults = %d, want 22", faults.Len())
	}
	if all := adifo.AllFaults(c); all.Len() <= faults.Len() {
		t.Fatalf("uncollapsed %d vs collapsed %d", all.Len(), faults.Len())
	}

	u := adifo.ExhaustivePatterns(c.NumInputs())
	ix, err := adifo.ComputeADI(ctx, faults, u)
	if err != nil {
		t.Fatal(err)
	}
	mn, mx := ix.MinMax()
	if mn <= 0 || mx < mn {
		t.Fatalf("degenerate ADI range [%d, %d]", mn, mx)
	}

	for _, kind := range adifo.AllOrders() {
		order := ix.Order(kind)
		res, err := adifo.GenerateTests(ctx, faults, order,
			adifo.WithFillSeed(adifo.DefaultFillSeed), adifo.WithValidate(true))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Coverage() != 1.0 {
			t.Fatalf("%v: coverage %.3f, want 1.0 on c17", kind, res.Coverage())
		}
	}

	// Round-trip an order label through ParseOrder.
	kind, err := adifo.ParseOrder("0dynm")
	if err != nil || kind != adifo.Dynm0 {
		t.Fatalf("ParseOrder(0dynm) = %v, %v", kind, err)
	}
}

func TestFacadeSimulateOptions(t *testing.T) {
	ctx := context.Background()
	c, err := adifo.LoadCircuit("lion")
	if err != nil {
		t.Fatal(err)
	}
	faults := adifo.Faults(c)
	ps := adifo.RandomPatterns(c.NumInputs(), 640, adifo.DefaultUSeed)

	// Default mode is NoDrop: detection sets are present.
	noDrop, err := adifo.Simulate(ctx, faults, ps)
	if err != nil {
		t.Fatal(err)
	}
	if noDrop.Det == nil {
		t.Fatal("default Simulate must record detection sets (NoDrop)")
	}
	// The ADI can be derived from an existing NoDrop result.
	if _, err := adifo.ADIFromResult(noDrop, ps); err != nil {
		t.Fatal(err)
	}

	var progressCalls int
	dropped, err := adifo.Simulate(ctx, faults, ps,
		adifo.WithMode(adifo.Drop),
		adifo.WithWorkers(2),
		adifo.WithProgress(func(p adifo.SimProgress) { progressCalls++ }))
	if err != nil {
		t.Fatal(err)
	}
	if progressCalls == 0 {
		t.Fatal("progress callback never fired")
	}
	if dropped.Det != nil {
		t.Fatal("Drop mode must not record detection sets")
	}
	if _, err := adifo.ADIFromResult(dropped, ps); err == nil {
		t.Fatal("ADIFromResult must reject a Drop-mode result")
	}

	// A pinned kernel block width changes speed, never results.
	wide, err := adifo.Simulate(ctx, faults, ps, adifo.WithBlockWidth(512))
	if err != nil {
		t.Fatal(err)
	}
	if wide.DetectedCount() != noDrop.DetectedCount() || wide.VectorsUsed != noDrop.VectorsUsed {
		t.Fatalf("block width changed results: %d/%d vs %d/%d",
			wide.DetectedCount(), wide.VectorsUsed, noDrop.DetectedCount(), noDrop.VectorsUsed)
	}

	// Option validation surfaces as errors, not panics.
	if _, err := adifo.Simulate(ctx, faults, ps, adifo.WithMode(adifo.NDetect)); err == nil {
		t.Fatal("NDetect without a threshold must error")
	}
	if _, err := adifo.Simulate(ctx, faults, ps, adifo.WithBlockWidth(100)); err == nil {
		t.Fatal("invalid block width must error")
	}
	bad := adifo.RandomPatterns(c.NumInputs()+1, 64, 1)
	if _, err := adifo.Simulate(ctx, faults, bad); err == nil {
		t.Fatal("input-width mismatch must error")
	}
	if _, err := adifo.GenerateTests(ctx, faults, []int{0, 0}); err == nil {
		t.Fatal("non-permutation order must error")
	}
	if _, err := adifo.ParseMode(""); err == nil {
		t.Fatal("empty mode string must be rejected")
	}
}

func TestFacadeSimulateCancel(t *testing.T) {
	c, err := adifo.LoadCircuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := adifo.Faults(c)
	ps := adifo.RandomPatterns(c.NumInputs(), 1024, 7)
	ctx, cancel := context.WithCancel(context.Background())
	res, err := adifo.Simulate(ctx, faults, ps,
		adifo.WithProgress(func(p adifo.SimProgress) {
			if p.Block == 1 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.VectorsUsed == 0 || res.VectorsUsed >= ps.Len() {
		t.Fatalf("cancelled run simulated %d of %d vectors", res.VectorsUsed, ps.Len())
	}
	cancel()
}

// slowChainBench builds a deep XOR chain whose grading takes long
// enough to cancel mid-run.
func slowChainBench() string {
	var b strings.Builder
	const inputs, chain = 16, 400
	for i := 0; i < inputs; i++ {
		fmt.Fprintf(&b, "INPUT(i%d)\n", i)
	}
	fmt.Fprintf(&b, "OUTPUT(g%d)\n", chain-1)
	fmt.Fprintf(&b, "g0 = XOR(i0, i1)\n")
	for i := 1; i < chain; i++ {
		fmt.Fprintf(&b, "g%d = XOR(g%d, i%d)\n", i, i-1, i%inputs)
	}
	return b.String()
}

// gradeAndCancel drives the Grader contract shared by the local and
// remote implementations: grade a small job to completion, then cancel
// a slow one mid-run and watch its stream end with JobCancelled.
func gradeAndCancel(t *testing.T, g adifo.Grader) {
	t.Helper()
	ctx := context.Background()

	id, err := g.Submit(ctx, adifo.JobSpec{
		Circuit:  "c17",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 320, Seed: 3}},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Stream(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != adifo.JobDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	res, err := g.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check the service result against a direct library run
	// through the facade.
	c, err := adifo.ParseBenchString("c17", adifo.BenchString(mustLoad(t, "c17")))
	if err != nil {
		t.Fatal(err)
	}
	faults := adifo.Faults(c)
	ps := adifo.RandomPatterns(c.NumInputs(), 320, 3)
	direct, err := adifo.Simulate(ctx, faults, ps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != direct.DetectedCount() || res.Faults != faults.Len() {
		t.Fatalf("grader result %d/%d diverges from direct run %d/%d",
			res.Detected, res.Faults, direct.DetectedCount(), faults.Len())
	}

	// Cancel a slow job mid-run.
	slow, err := g.Submit(ctx, adifo.JobSpec{
		Bench:    slowChainBench(),
		Name:     "slow-chain",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 1 << 16, Seed: 1}},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelled := false
	st, err = g.Stream(ctx, slow, func(ev adifo.ProgressEvent) {
		if !cancelled {
			cancelled = true
			if _, err := g.Cancel(ctx, slow); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != adifo.JobCancelled {
		t.Fatalf("stream of cancelled job ended with %q, want %q", st.State, adifo.JobCancelled)
	}
	if _, err := g.Result(ctx, slow); err == nil {
		t.Fatal("result of a cancelled job must error")
	}
	stats, err := g.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.JobsCancelled != 1 || stats.JobsDone != 1 {
		t.Fatalf("grader stats: %+v", stats)
	}
}

func mustLoad(t *testing.T, ref string) *adifo.Circuit {
	t.Helper()
	c, err := adifo.LoadCircuit(ref)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLocalGrader(t *testing.T) {
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	gradeAndCancel(t, g)
}

func TestRemoteGrader(t *testing.T) {
	// The remote grader talks to a real HTTP server backed by the
	// local engine — the same wiring as adifod.
	local := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer local.Close()
	srv := httptest.NewServer(local.Handler())
	defer srv.Close()
	g := adifo.NewRemoteGrader(srv.URL, srv.Client())
	defer g.Close()
	gradeAndCancel(t, g)
}

// clusterOf spins up n adifod-equivalent backends and a ClusterGrader
// over them, all through the public API.
func clusterOf(t *testing.T, n int) *adifo.ClusterGrader {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		local := adifo.NewLocalGrader(adifo.GraderConfig{})
		srv := httptest.NewServer(local.Handler())
		t.Cleanup(func() {
			srv.Close()
			local.Close()
		})
		urls[i] = srv.URL
	}
	g, err := adifo.NewClusterGrader(urls, adifo.ClusterOptions{Logger: obs.Nop()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// TestClusterGraderParity: a ClusterGrader over three backends returns
// the identical result a LocalGrader computes in one process, through
// the Grader interface consumers already use.
func TestClusterGraderParity(t *testing.T) {
	ctx := context.Background()
	spec := adifo.JobSpec{
		Circuit:  "c17",
		Mode:     "ndetect",
		N:        4,
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 448, Seed: 11}},
	}

	local := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer local.Close()
	wantID, err := local.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := local.Stream(ctx, wantID, nil); err != nil || st.State != adifo.JobDone {
		t.Fatalf("local stream: %+v, %v", st, err)
	}
	want, err := local.Result(ctx, wantID)
	if err != nil {
		t.Fatal(err)
	}

	g := clusterOf(t, 3)
	id, err := g.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// A small job can finish before the stream subscribes, so events
	// are not asserted here; the merged-stream shape is covered by the
	// cluster package tests.
	st, err := g.Stream(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != adifo.JobDone {
		t.Fatalf("cluster job %s: %s", st.State, st.Error)
	}
	got, err := g.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	norm := func(r *adifo.JobResult) string {
		cp := *r
		cp.ID = "X"
		cp.Timing = nil // wall-clock, never identical between runs
		cp.TraceID = "" // run identity, never identical between runs
		b, err := json.Marshal(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if norm(got) != norm(want) {
		t.Fatalf("cluster result diverges from local run\n got: %s\nwant: %s", norm(got), norm(want))
	}

	// 4 work-queue shards per healthy backend (the coordinator's
	// default over-partitioning factor).
	shards, err := g.Shards(id)
	if err != nil || len(shards) != 12 {
		t.Fatalf("shards: %v, %v", shards, err)
	}

	// Cancel flow across the cluster: a slow job cancelled mid-run ends
	// its merged stream with the cancelled status.
	slow, err := g.Submit(ctx, adifo.JobSpec{
		Bench:    slowChainBench(),
		Name:     "slow-chain",
		Patterns: adifo.PatternSpec{Random: &adifo.RandomSpec{N: 1 << 16, Seed: 1}},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelled := false
	st, err = g.Stream(ctx, slow, func(ev adifo.ProgressEvent) {
		if !cancelled {
			cancelled = true
			if _, err := g.Cancel(ctx, slow); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != adifo.JobCancelled {
		t.Fatalf("cancelled cluster stream ended with %q", st.State)
	}
	if _, err := g.Result(ctx, slow); !errors.Is(err, adifo.ErrJobCancelled) {
		t.Fatalf("result of cancelled cluster job: %v, want ErrJobCancelled", err)
	}
}

// TestRemoteGraderTypedError checks the remote error path surfaces the
// wire envelope as *adifo.APIError.
func TestRemoteGraderTypedError(t *testing.T) {
	local := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer local.Close()
	srv := httptest.NewServer(local.Handler())
	defer srv.Close()
	g := adifo.NewRemoteGrader(srv.URL, srv.Client())
	defer g.Close()

	ctx := context.Background()
	_, err := g.Status(ctx, "j999")
	var ae *adifo.APIError
	if !errors.As(err, &ae) || ae.Code != "not_found" {
		t.Fatalf("remote status of unknown job: %v, want APIError not_found", err)
	}
	// The sentinel contract holds across implementations: a decoded
	// wire error matches the same errors.Is targets as a local call.
	if !errors.Is(err, adifo.ErrJobNotFound) {
		t.Fatalf("remote error %v must match ErrJobNotFound via errors.Is", err)
	}
	id, err := g.Submit(ctx, adifo.JobSpec{
		Circuit:  "c17",
		Patterns: adifo.PatternSpec{Exhaustive: true},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := g.Stream(ctx, id, nil); err != nil || st.State != adifo.JobDone {
		t.Fatalf("stream: %+v, %v", st, err)
	}
	if _, err := g.Cancel(ctx, id); !errors.Is(err, adifo.ErrJobFinished) {
		t.Fatalf("remote cancel of finished job: %v, want ErrJobFinished via errors.Is", err)
	}
	if _, err := g.Result(ctx, "j999"); !errors.Is(err, adifo.ErrJobNotFound) {
		t.Fatalf("remote result of unknown job: %v, want ErrJobNotFound", err)
	}
}

// TestLocalGraderErrors checks the local implementation returns the
// exported sentinel errors.
func TestLocalGraderErrors(t *testing.T) {
	g := adifo.NewLocalGrader(adifo.GraderConfig{})
	defer g.Close()
	ctx := context.Background()
	if _, err := g.Status(ctx, "j999"); !errors.Is(err, adifo.ErrJobNotFound) {
		t.Fatalf("status: %v, want ErrJobNotFound", err)
	}
	if _, err := g.Cancel(ctx, "j999"); !errors.Is(err, adifo.ErrJobNotFound) {
		t.Fatalf("cancel: %v, want ErrJobNotFound", err)
	}
	id, err := g.Submit(ctx, adifo.JobSpec{
		Circuit:  "c17",
		Patterns: adifo.PatternSpec{Exhaustive: true},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := g.Stream(ctx, id, nil); err != nil || st.State != adifo.JobDone {
		t.Fatalf("stream: %+v, %v", st, err)
	}
	if _, err := g.Cancel(ctx, id); !errors.Is(err, adifo.ErrJobFinished) {
		t.Fatalf("cancel finished: %v, want ErrJobFinished", err)
	}
}

// TestLoadCircuitFile loads a .bench file path; a name is resolved
// before the filesystem is tried.
func TestLoadCircuitFile(t *testing.T) {
	if c := mustLoad(t, "c17"); c.Name != "c17" || c.NumInputs() != 5 {
		t.Fatalf("c17: loaded %s with %d inputs", c.Name, c.NumInputs())
	}
	path := filepath.Join(t.TempDir(), "tiny.bench")
	if err := os.WriteFile(path, []byte("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c := mustLoad(t, path); c.NumInputs() != 2 {
		t.Fatalf("tiny.bench: %d inputs", c.NumInputs())
	}
}

// TestLoadCircuitBadFile refuses a reference that is neither a name
// nor a readable netlist: an unknown name, a missing file, and a file
// that is not a netlist.
func TestLoadCircuitBadFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bench")
	if err := os.WriteFile(bad, []byte("not a netlist"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"no-such-thing", filepath.Join(dir, "missing.bench"), bad} {
		if _, err := adifo.LoadCircuit(ref); err == nil {
			t.Errorf("LoadCircuit(%q) succeeded", ref)
		}
	}
}

// TestFacadeSizePatterns reproduces the paper's U-sizing recipe
// through the facade and checks the truncation actually happened.
func TestFacadeSizePatterns(t *testing.T) {
	ctx := context.Background()
	c := mustLoad(t, "lion")
	faults := adifo.Faults(c)
	candidates := adifo.RandomPatterns(c.NumInputs(), 4096, adifo.DefaultUSeed)
	u, err := adifo.SizePatterns(ctx, faults, candidates, adifo.DefaultTargetCoverage)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() == 0 || u.Len() >= candidates.Len() {
		t.Fatalf("sized U has %d of %d vectors", u.Len(), candidates.Len())
	}
	if u.Len()%64 != 0 {
		t.Fatalf("sizing must cut at a block boundary, got %d", u.Len())
	}
}

// TestGenerateTestsCancel checks cancellation mid-generation returns a
// consistent partial test set.
func TestGenerateTestsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := mustLoad(t, "c17")
	faults := adifo.Faults(c)
	u := adifo.ExhaustivePatterns(c.NumInputs())
	ix, err := adifo.ComputeADI(ctx, faults, u)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel after a tick: generation on c17 is fast, so instead use a
	// pre-cancelled context for determinism.
	cancel()
	res, err := adifo.GenerateTests(ctx, faults, ix.Order(adifo.Dynm))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Tests) != 0 || len(res.Curve) != 0 {
		t.Fatalf("pre-cancelled generation produced %d tests", len(res.Tests))
	}
}
