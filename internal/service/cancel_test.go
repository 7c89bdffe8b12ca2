package service

import (
	"context"
	"errors"
	"fmt"
	"github.com/eda-go/adifo/internal/obs"
	"strings"
	"testing"
	"time"
)

// slowBench builds an XOR-chain netlist deep enough that grading it
// against many vectors takes long enough to cancel mid-run reliably
// (every fault's cone spans the rest of the chain, so propagation cost
// grows with depth), while staying cheap to parse.
func slowBench(inputs, chain int) string {
	var b strings.Builder
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

// slowSpec is a grading job that runs for a macroscopic time (hundreds
// of 64-pattern blocks over a deep circuit).
func slowSpec() JobSpec {
	return JobSpec{
		Bench:    slowBench(16, 400),
		Name:     "slow-chain",
		Patterns: PatternSpec{Random: &RandomSpec{N: 1 << 16, Seed: 1}},
		Mode:     "nodrop",
	}
}

func waitState(t *testing.T, s *Service, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == want {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelRunningJob cancels a job mid-simulation and checks it
// reaches the cancelled terminal state with its stream ended, having
// simulated only a prefix of the vectors.
func TestCancelRunningJob(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	id, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 30*time.Second)
	defer stop()
	events := 0
	// Cancel at the first block barrier, when the job is provably
	// running.
	_, err = s.Stream(ctx, id, func(ProgressEvent) {
		events++
		if events != 1 {
			return
		}
		if _, err := s.Cancel(id); err != nil {
			t.Fatalf("cancel running job: %v", err)
		}
	})
	if events == 0 {
		t.Fatal("job finished before the first progress event; slowSpec is not slow enough")
	}
	// The stream must end (terminal transition).
	if err != nil {
		t.Fatalf("stream not ended after cancel: %v", err)
	}
	st := waitState(t, s, id, StateCancelled)
	if st.VectorsUsed >= 1<<16 {
		t.Fatalf("cancelled job simulated all %d vectors", st.VectorsUsed)
	}
	if _, err := s.Result(id); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Result on cancelled job = %v, want ErrCancelled", err)
	}
	// Cancel is idempotent on a cancelled job...
	if st, err := s.Cancel(id); err != nil || st.State != StateCancelled {
		t.Fatalf("repeat cancel: %+v, %v", st, err)
	}
	stats := s.Stats()
	if stats.JobsCancelled != 1 || stats.JobsRunning != 0 {
		t.Fatalf("stats after cancel: %+v", stats)
	}
}

// TestCancelQueuedJob fills the single-slot pool with a long job and
// cancels a queued one: it must reach cancelled immediately, without
// ever running, and the pool slot must go to the next submission.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Logger: obs.Nop(), MaxConcurrentJobs: 1})
	defer s.Close()
	blocker, err := s.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker, StateRunning)
	queued, err := s.Submit(JobSpec{
		Circuit:  "c17",
		Patterns: PatternSpec{Exhaustive: true},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Cancel(queued)
	if err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled immediately", st.State)
	}
	if st.VectorsUsed != 0 || st.BlocksDone != 0 {
		t.Fatalf("cancelled-while-queued job did work: %+v", st)
	}
	// Unblock the pool and check the cancelled job stays cancelled
	// (run() must not resurrect it when it reaches the slot).
	if _, err := s.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker, StateCancelled)
	s.Close()
	if st, _ := s.Status(queued); st.State != StateCancelled {
		t.Fatalf("queued job resurrected to %s", st.State)
	}
	stats := s.Stats()
	if stats.JobsCancelled != 2 || stats.JobsDone != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestRegistryConsistentAfterCancelledBuild cancels a job whose
// circuit entry was (or is being) built and checks the registry still
// serves the entry to the next identical submission, which completes.
func TestRegistryConsistentAfterCancelledBuild(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	spec := slowSpec()
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first, StateRunning)
	if _, err := s.Cancel(first); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first, StateCancelled)

	// Same netlist, tiny pattern set: must hit the circuit cache and
	// finish clean.
	spec.Patterns = PatternSpec{Random: &RandomSpec{N: 64, Seed: 2}}
	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, second, StateDone)
	st := s.Stats()
	if st.Registry.CircuitMisses != 1 || st.Registry.CircuitHits != 1 {
		t.Fatalf("registry after cancelled build: %+v, want 1 miss / 1 hit", st.Registry)
	}
}

func TestCancelErrors(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	if _, err := s.Cancel("j999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown job = %v, want ErrNotFound", err)
	}
	id, err := s.Submit(JobSpec{
		Circuit:  "c17",
		Patterns: PatternSpec{Exhaustive: true},
		Mode:     "nodrop",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, StateDone)
	if _, err := s.Cancel(id); !errors.Is(err, ErrFinished) {
		t.Fatalf("cancel finished job = %v, want ErrFinished", err)
	}
}

func TestSubmitRejectsEmptyMode(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	_, err := s.Submit(JobSpec{
		Circuit:  "c17",
		Patterns: PatternSpec{Exhaustive: true},
	})
	if err == nil {
		t.Fatal("empty mode must be rejected on the wire")
	}
}
