package service

import (
	"context"
	"github.com/eda-go/adifo/internal/obs"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

func waitDone(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// directRun reproduces what the service should compute, via the
// library, for a named circuit and random patterns.
func directRun(t *testing.T, name string, n int, seed uint64, opts fsim.Options) (*fault.List, *fsim.Result) {
	t.Helper()
	c, err := benchdata.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), n, prng.New(seed))
	return fl, fsim.Run(fl, ps, opts)
}

func TestJobMatchesDirectLibraryRun(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	for _, tc := range []struct {
		mode string
		n    int
		opts fsim.Options
	}{
		{"nodrop", 0, fsim.Options{Mode: fsim.NoDrop}},
		{"drop", 0, fsim.Options{Mode: fsim.Drop}},
		{"ndetect", 2, fsim.Options{Mode: fsim.NDetect, N: 2}},
	} {
		id, err := s.Submit(JobSpec{
			Circuit:  "c17",
			Patterns: PatternSpec{Random: &RandomSpec{N: 200, Seed: 7}},
			Mode:     tc.mode,
			N:        tc.n,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		st := waitDone(t, s, id)
		if st.State != StateDone {
			t.Fatalf("%s: job failed: %s", tc.mode, st.Error)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}

		fl, want := directRun(t, "c17", 200, 7, tc.opts)
		if res.Faults != fl.Len() || res.Detected != want.DetectedCount() ||
			res.VectorsUsed != want.VectorsUsed {
			t.Fatalf("%s: summary mismatch: %+v", tc.mode, res)
		}
		if len(res.Ndet) != len(want.Ndet) {
			t.Fatalf("%s: ndet length %d vs %d", tc.mode, len(res.Ndet), len(want.Ndet))
		}
		for u := range want.Ndet {
			if res.Ndet[u] != want.Ndet[u] {
				t.Fatalf("%s: ndet(%d) %d vs %d", tc.mode, u, res.Ndet[u], want.Ndet[u])
			}
		}
		for fi := range fl.Faults {
			fr := res.PerFault[fi]
			if fr.DetCount != want.DetCount[fi] || fr.FirstDet != want.FirstDet[fi] {
				t.Fatalf("%s fault %d: got (%d,%d), want (%d,%d)", tc.mode, fi,
					fr.DetCount, fr.FirstDet, want.DetCount[fi], want.FirstDet[fi])
			}
			if want.Det != nil {
				wantIdx := want.Det[fi].AppendIndices(nil)
				if len(fr.Det) != len(wantIdx) {
					t.Fatalf("%s fault %d: det set size %d vs %d", tc.mode, fi, len(fr.Det), len(wantIdx))
				}
				for k := range wantIdx {
					if fr.Det[k] != wantIdx[k] {
						t.Fatalf("%s fault %d: det[%d] = %d, want %d", tc.mode, fi, k, fr.Det[k], wantIdx[k])
					}
				}
			} else if fr.Det != nil {
				t.Fatalf("%s fault %d: unexpected det set in drop mode", tc.mode, fi)
			}
		}
	}
}

// TestRepeatSubmissionHitsCaches also pins the good-machine cache
// rule: a drop job and a coverage-stopped job run without the cache,
// and only the nodrop jobs after them warm it.
func TestRepeatSubmissionHitsCaches(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	spec := JobSpec{
		Circuit:  "lion",
		Patterns: PatternSpec{Exhaustive: true},
		Mode:     "nodrop",
	}
	drop, stopped := spec, spec
	drop.Mode = "drop"
	stopped.StopAtCoverage = 0.5
	for _, sp := range []JobSpec{drop, stopped} {
		id, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("mode %s, stop %v: %s", sp.Mode, sp.StopAtCoverage, st.Error)
		}
	}
	if st := s.Stats().Registry; st.GoodMisses != 0 || st.GoodHits != 0 || st.Goods != 0 {
		t.Fatalf("good cache after a drop and a stopped job: %+v, want untouched", st)
	}
	for i := 0; i < 3; i++ {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("run %d failed: %s", i, st.Error)
		}
	}
	st := s.Stats()
	if st.Registry.CircuitMisses != 1 || st.Registry.CircuitHits != 4 {
		t.Fatalf("circuit cache: %+v, want 1 miss / 4 hits", st.Registry)
	}
	if st.Registry.GoodMisses != 1 || st.Registry.GoodHits != 2 {
		t.Fatalf("good cache: %+v, want 1 miss / 2 hits", st.Registry)
	}
	if st.JobsDone != 5 || st.JobsFailed != 0 {
		t.Fatalf("job counters: %+v", st)
	}
}

// TestSharedCompiledFormAcrossCircuitKeys grades one netlist under
// three circuit keys: by name, as inline text and as that text with a
// trailing comment. The registry shares one compiled form among them
// by fingerprint, so the good values of the second and third job are
// computed from the first job's compiled form; each job must still
// finish with the library's result.
func TestSharedCompiledFormAcrossCircuitKeys(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	pats := PatternSpec{Random: &RandomSpec{N: 200, Seed: 7}}
	fl, want := directRun(t, "c17", 200, 7, fsim.Options{Mode: fsim.NoDrop})
	for i, spec := range []JobSpec{
		{Circuit: "c17", Patterns: pats, Mode: "nodrop"},
		{Bench: benchdata.C17, Name: "c17", Patterns: pats, Mode: "nodrop"},
		{Bench: benchdata.C17 + "# trailing comment\n", Name: "c17", Patterns: pats, Mode: "nodrop"},
	} {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %d failed: %s", i+1, st.Error)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Detected != want.DetectedCount() || !slices.Equal(res.Ndet, want.Ndet) {
			t.Fatalf("job %d: detected %d, ndet %v; want %d, %v",
				i+1, res.Detected, res.Ndet, want.DetectedCount(), want.Ndet)
		}
		for fi := range fl.Faults {
			if fr := res.PerFault[fi]; fr.DetCount != want.DetCount[fi] || fr.FirstDet != want.FirstDet[fi] {
				t.Fatalf("job %d fault %d: got (%d,%d), want (%d,%d)", i+1, fi,
					fr.DetCount, fr.FirstDet, want.DetCount[fi], want.FirstDet[fi])
			}
		}
	}
	if st := s.Stats().Registry; st.CompiledMisses != 1 || st.GoodMisses != 3 {
		t.Fatalf("registry: %+v, want 1 compiled miss and 3 good misses", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	bad := []JobSpec{
		{},                               // no circuit
		{Circuit: "c17"},                 // no patterns
		{Circuit: "c17", Bench: "x = y"}, // ambiguous circuit
		{Circuit: "c17", Patterns: PatternSpec{Random: &RandomSpec{N: 0}}},                   // n <= 0
		{Circuit: "c17", Patterns: PatternSpec{Random: &RandomSpec{N: 8}, Exhaustive: true}}, // two pattern kinds
		{Circuit: "c17", Patterns: PatternSpec{Random: &RandomSpec{N: 8}}, Mode: "bogus"},
		{Circuit: "c17", Patterns: PatternSpec{Random: &RandomSpec{N: 8}}, Mode: "ndetect"},    // missing n
		{Circuit: "c17", Patterns: PatternSpec{Random: &RandomSpec{N: 8}}, Mode: "drop", N: 3}, // n without ndetect
		{Circuit: "c17", Patterns: PatternSpec{Vectors: []string{"01"}}, Mode: "nodrop"},       // width checked at run time...
	}
	for i, spec := range bad[:len(bad)-1] {
		if _, err := s.Submit(spec); err == nil {
			t.Fatalf("spec %d accepted: %+v", i, spec)
		}
	}
	// Wrong vector width is only discoverable after circuit resolution:
	// it must surface as a failed job, not a hung one.
	id, err := s.Submit(bad[len(bad)-1])
	if err != nil {
		t.Fatalf("vector-width spec rejected synchronously: %v", err)
	}
	st := waitDone(t, s, id)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("want failed job with error, got %+v", st)
	}
	if _, err := s.Result(id); err == nil {
		t.Fatal("Result on failed job must error")
	}
}

func TestUnknownCircuitFailsJob(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	id, err := s.Submit(JobSpec{
		Circuit:  "no-such-circuit",
		Patterns: PatternSpec{Random: &RandomSpec{N: 8, Seed: 1}},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s, id); st.State != StateFailed {
		t.Fatalf("want failed, got %+v", st)
	}
}

// TestJobRetention checks that finished jobs are evicted oldest-first
// once the retained set exceeds the bound, so server memory does not
// grow with lifetime request count.
func TestJobRetention(t *testing.T) {
	s := New(Config{Logger: obs.Nop(), MaxRetainedJobs: 3})
	defer s.Close()
	spec := JobSpec{Circuit: "lion", Patterns: PatternSpec{Exhaustive: true}, Mode: "nodrop"}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		// Finish each job before the next submission so eviction has
		// terminal jobs to reclaim.
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
	}
	if got := len(s.Jobs()); got > 3 {
		t.Fatalf("%d jobs retained, want <= 3", got)
	}
	if _, ok := s.Status(ids[0]); ok {
		t.Fatalf("oldest job %s should have been evicted", ids[0])
	}
	if _, err := s.Result(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job must survive eviction: %v", err)
	}
}

func TestResultErrors(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	if _, err := s.Result("j999"); err != ErrNotFound {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, ok := s.Status("j999"); ok {
		t.Fatal("unknown job must not have status")
	}
}

func TestSubscribeStreamsBlocks(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	// 1024 vectors = 16 blocks, enough to observe streaming.
	id, err := s.Submit(JobSpec{
		Circuit:  "c17",
		Patterns: PatternSpec{Random: &RandomSpec{N: 1024, Seed: 1}},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	if _, err := s.Stream(context.Background(), id, func(ev ProgressEvent) {
		events = append(events, ev)
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	st := waitDone(t, s, id)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	// Block indices must be strictly increasing and in range.
	for i := 1; i < len(events); i++ {
		if events[i].Block <= events[i-1].Block {
			t.Fatalf("non-increasing block stream: %v then %v", events[i-1], events[i])
		}
	}
	for _, ev := range events {
		if ev.Block < 0 || ev.Block >= ev.Blocks || ev.JobID != id {
			t.Fatalf("bad event %+v", ev)
		}
	}
	// Streaming a finished job returns its status with no event.
	late := 0
	st, err = s.Stream(context.Background(), id, func(ProgressEvent) { late++ })
	if err != nil || st.State != StateDone || late != 0 {
		t.Fatalf("late stream: %+v, %v, %d events; want the done status and no event", st, err, late)
	}
}

// TestSubmitAfterCloseRuns: Close only waits for the jobs, so a job
// submitted after it still runs to done, even once every goroutine New
// and Close left behind has exited.
func TestSubmitAfterCloseRuns(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Logger: obs.Nop()})
	s.Close()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Close", runtime.NumGoroutine()-before)
		}
	}
	id, err := s.Submit(JobSpec{Circuit: "c17", Mode: "nodrop", Patterns: PatternSpec{Exhaustive: true}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if st, err := s.Stream(ctx, id, nil); err != nil || st.State != StateDone {
		t.Fatalf("job submitted after Close: %+v, %v; want done", st, err)
	}
	s.Close()
}

// TestConcurrentJobsBounded floods a 2-slot pool with jobs and checks
// they all complete with per-seed-correct results (the shared caches
// and the bounded pool must not cross-contaminate jobs).
func TestConcurrentJobsBounded(t *testing.T) {
	s := New(Config{Logger: obs.Nop(), MaxConcurrentJobs: 2, SimWorkers: 2})
	defer s.Close()
	ids := make([]string, 8)
	for i := range ids {
		id, err := s.Submit(JobSpec{
			Circuit:  "s27",
			Patterns: PatternSpec{Random: &RandomSpec{N: 192, Seed: uint64(i)}},
			Mode:     "nodrop",
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		st := waitDone(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		_, want := directRun(t, "s27", 192, uint64(i), fsim.Options{Mode: fsim.NoDrop})
		if res.Detected != want.DetectedCount() {
			t.Fatalf("job %s (seed %d): detected %d, want %d", id, i, res.Detected, want.DetectedCount())
		}
	}
	st := s.Stats()
	if st.JobsDone != 8 || st.JobsRunning != 0 || st.JobsQueued != 0 {
		t.Fatalf("counters after drain: %+v", st)
	}
}
