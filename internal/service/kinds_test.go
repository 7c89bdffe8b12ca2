package service

import (
	"context"
	"errors"
	"github.com/eda-go/adifo/internal/obs"
	"reflect"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
	"github.com/eda-go/adifo/internal/tgen"
)

// waitTerminal polls a job to any terminal state (unlike the older
// waitDone helper, which treats cancelled as stuck).
func waitTerminal(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if terminal(st.State) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func TestSubmitUnsupportedKind(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	_, err := s.Submit(JobSpec{
		Kind:     "mine_bitcoin",
		Circuit:  "c17",
		Patterns: PatternSpec{Random: &RandomSpec{N: 8, Seed: 1}},
	})
	if !errors.Is(err, ErrUnsupportedKind) {
		t.Fatalf("Submit(kind=mine_bitcoin) = %v, want ErrUnsupportedKind", err)
	}
}

// TestSubmitKindRestricted: Config.Kinds dedicates a server to a
// subset of workloads; other kinds get the same typed rejection as
// unknown ones.
func TestSubmitKindRestricted(t *testing.T) {
	s := New(Config{Logger: obs.Nop(), Kinds: []string{KindGrade}})
	defer s.Close()
	_, err := s.Submit(JobSpec{
		Kind:     KindAtpg,
		Circuit:  "c17",
		Patterns: PatternSpec{Random: &RandomSpec{N: 8, Seed: 1}},
		Order:    &OrderSpec{Kind: "dynm"},
	})
	if !errors.Is(err, ErrUnsupportedKind) {
		t.Fatalf("Submit(atpg on grade-only server) = %v, want ErrUnsupportedKind", err)
	}
	// The allowed kind still works, including via the kind-less
	// default.
	id, err := s.Submit(JobSpec{
		Circuit:  "c17",
		Mode:     "drop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 8, Seed: 1}},
	})
	if err != nil {
		t.Fatalf("Submit(kind-less grade) on grade-only server: %v", err)
	}
	if st := waitTerminal(t, s, id); st.State != StateDone || st.Kind != KindGrade {
		t.Fatalf("grade job ended %q kind %q", st.State, st.Kind)
	}
}

// TestKindValidation: the kind-specific spec constraints reject
// mis-assembled specs at submit time with actionable messages.
func TestKindValidation(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	pat := PatternSpec{Random: &RandomSpec{N: 8, Seed: 1}}
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"atpg without order", JobSpec{Kind: KindAtpg, Circuit: "c17", Patterns: pat}},
		{"atpg with empty order kind", JobSpec{Kind: KindAtpg, Circuit: "c17", Patterns: pat, Order: &OrderSpec{}}},
		{"atpg with unknown order kind", JobSpec{Kind: KindAtpg, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "bogus"}}},
		{"atpg with mode", JobSpec{Kind: KindAtpg, Circuit: "c17", Patterns: pat, Mode: "drop", Order: &OrderSpec{Kind: "dynm"}}},
		{"atpg with stop_at_coverage", JobSpec{Kind: KindAtpg, Circuit: "c17", Patterns: pat, StopAtCoverage: 0.9, Order: &OrderSpec{Kind: "dynm"}}},
		{"atpg with fault_shard", JobSpec{Kind: KindAtpg, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "dynm"}, FaultShard: &FaultShard{Index: 0, Count: 2}}},
		{"atpg with negative backtrack limit", JobSpec{Kind: KindAtpg, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "dynm"}, Gen: &GenSpec{BacktrackLimit: -1}}},
		{"adi_order without order", JobSpec{Kind: KindADIOrder, Circuit: "c17", Patterns: pat}},
		{"adi_order with gen", JobSpec{Kind: KindADIOrder, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "decr"}, Gen: &GenSpec{}}},
		{"adi_order with n", JobSpec{Kind: KindADIOrder, Circuit: "c17", Patterns: pat, N: 3, Order: &OrderSpec{Kind: "decr"}}},
		{"adi_order with fault_shard", JobSpec{Kind: KindADIOrder, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "decr"}, FaultShard: &FaultShard{Index: 0, Count: 2}}},
		{"grade with order", JobSpec{Circuit: "c17", Mode: "drop", Patterns: pat, Order: &OrderSpec{Kind: "dynm"}}},
		{"grade with gen", JobSpec{Circuit: "c17", Mode: "drop", Patterns: pat, Gen: &GenSpec{FillSeed: 1}}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.spec); err == nil {
			t.Errorf("%s: Submit accepted the spec", c.name)
		} else if errors.Is(err, ErrUnsupportedKind) {
			t.Errorf("%s: got ErrUnsupportedKind (%v); want a validation error", c.name, err)
		}
	}
}

// TestADIOrderJobMatchesLibrary: an adi_order job returns exactly what
// the in-process adi computation derives, for every order kind.
func TestADIOrderJobMatchesLibrary(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	entry, err := s.Registry().CircuitFor(JobSpec{Circuit: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	u := logic.RandomPatterns(entry.Circuit.NumInputs(), 96, prng.New(7))
	ix := adi.Compute(entry.Faults, u)

	for _, kind := range adi.AllOrders() {
		id, err := s.Submit(JobSpec{
			Kind:     KindADIOrder,
			Circuit:  "c17",
			Patterns: PatternSpec{Random: &RandomSpec{N: 96, Seed: 7}},
			Order:    &OrderSpec{Kind: kind.String()},
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		st := waitTerminal(t, s, id)
		if st.State != StateDone || st.Kind != KindADIOrder {
			t.Fatalf("%v: job ended %q kind %q (%s)", kind, st.State, st.Kind, st.Error)
		}
		v, err := s.ResultAny(id)
		if err != nil {
			t.Fatalf("%v: ResultAny: %v", kind, err)
		}
		res, ok := v.(*OrderResult)
		if !ok {
			t.Fatalf("%v: result is %T", kind, v)
		}
		if !reflect.DeepEqual(res.Perm, ix.Order(kind)) {
			t.Errorf("%v: remote perm diverges from library order", kind)
		}
		if !reflect.DeepEqual(res.ADI, ix.ADI) || !reflect.DeepEqual(res.Ndet, ix.Ndet) {
			t.Errorf("%v: ADI/ndet data diverges from library computation", kind)
		}
		mn, mx := ix.MinMax()
		if res.ADIMin != mn || res.ADIMax != mx || res.NumDetected != ix.NumDetected() {
			t.Errorf("%v: spread stats = (%d, %d, %d), want (%d, %d, %d)",
				kind, res.ADIMin, res.ADIMax, res.NumDetected, mn, mx, ix.NumDetected())
		}
		// Result() is the grade-typed accessor and must refuse.
		if _, err := s.Result(id); err == nil {
			t.Errorf("%v: Result() accepted a non-grade job", kind)
		}
	}
}

// TestAtpgJobMatchesLibrary: an atpg job returns a test set
// bit-identical to the in-process ADI + ordered-generation flow.
func TestAtpgJobMatchesLibrary(t *testing.T) {
	const fillSeed = 12345
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	entry, err := s.Registry().CircuitFor(JobSpec{Circuit: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	u := logic.RandomPatterns(entry.Circuit.NumInputs(), 96, prng.New(7))
	ix := adi.Compute(entry.Faults, u)

	for _, kind := range []adi.OrderKind{adi.Orig, adi.Dynm} {
		want := tgen.Generate(entry.Faults, ix.Order(kind), tgen.Options{FillSeed: fillSeed})
		id, err := s.Submit(JobSpec{
			Kind:     KindAtpg,
			Circuit:  "c17",
			Patterns: PatternSpec{Random: &RandomSpec{N: 96, Seed: 7}},
			Order:    &OrderSpec{Kind: kind.String()},
			Gen:      &GenSpec{FillSeed: fillSeed},
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		st := waitTerminal(t, s, id)
		if st.State != StateDone || st.Kind != KindAtpg {
			t.Fatalf("%v: job ended %q kind %q (%s)", kind, st.State, st.Kind, st.Error)
		}
		v, err := s.ResultAny(id)
		if err != nil {
			t.Fatal(err)
		}
		res, ok := v.(*AtpgResult)
		if !ok {
			t.Fatalf("%v: result is %T", kind, v)
		}
		if len(res.Tests) != len(want.Tests) {
			t.Fatalf("%v: %d tests, library generated %d", kind, len(res.Tests), len(want.Tests))
		}
		for i, v := range want.Tests {
			if res.Tests[i] != v.String() {
				t.Fatalf("%v: test %d = %s, library generated %s", kind, i, res.Tests[i], v)
			}
		}
		if !reflect.DeepEqual(res.TargetOf, want.TargetOf) || !reflect.DeepEqual(res.Curve, want.Curve) {
			t.Errorf("%v: targets/curve diverge from library run", kind)
		}
		if res.AtpgCalls != want.AtpgCalls || res.Backtracks != want.Backtracks {
			t.Errorf("%v: effort (%d calls, %d backtracks), library (%d, %d)",
				kind, res.AtpgCalls, res.Backtracks, want.AtpgCalls, want.Backtracks)
		}
		if res.Detected != want.Detected() || res.AVE != want.AVE() {
			t.Errorf("%v: detected/AVE (%d, %v), library (%d, %v)",
				kind, res.Detected, res.AVE, want.Detected(), want.AVE())
		}
	}
}

// TestAtpgProgressStream: an atpg job streams block events during the
// ADI phase and per-target events during generation, and the status
// carries the generation counters at completion.
func TestAtpgProgressStream(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	id, err := s.Submit(JobSpec{
		Kind:     KindAtpg,
		Circuit:  "c17",
		Patterns: PatternSpec{Random: &RandomSpec{N: 256, Seed: 3}},
		Order:    &OrderSpec{Kind: "dynm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var blockEvents, targetEvents int
	_, err = s.Stream(context.Background(), id, func(ev ProgressEvent) {
		if ev.Kind != KindAtpg {
			t.Fatalf("event kind %q, want %q", ev.Kind, KindAtpg)
		}
		switch {
		case ev.Targets > 0:
			targetEvents++
			if ev.Target < 1 || ev.Target > ev.Targets {
				t.Fatalf("target %d out of range [1, %d]", ev.Target, ev.Targets)
			}
		default:
			blockEvents++
		}
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	st := waitTerminal(t, s, id)
	if st.State != StateDone {
		t.Fatalf("job ended %q: %s", st.State, st.Error)
	}
	// The stream opens after the submit and may miss the first events,
	// but a fast test expects to see both phases; the terminal status
	// is authoritative either way.
	if blockEvents == 0 && targetEvents == 0 {
		t.Fatal("saw no progress events at all")
	}
	if st.Targets == 0 || st.TargetsDone != st.Targets || st.Tests == 0 {
		t.Fatalf("final status targets=%d done=%d tests=%d; want a completed generation",
			st.Targets, st.TargetsDone, st.Tests)
	}
}

// TestAtpgJobCancel: a running atpg job cancels at a target barrier
// and reports the cancelled terminal state.
func TestAtpgJobCancel(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	// Suite circuits take long enough to cancel reliably mid-run.
	id, err := s.Submit(JobSpec{
		Kind:     KindAtpg,
		Circuit:  "irs208",
		Patterns: PatternSpec{Random: &RandomSpec{N: 2048, Seed: 3}},
		Order:    &OrderSpec{Kind: "orig"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st := waitTerminal(t, s, id); st.State != StateCancelled {
		t.Fatalf("job ended %q, want cancelled", st.State)
	}
	if _, err := s.ResultAny(id); !errors.Is(err, ErrCancelled) {
		t.Fatalf("ResultAny after cancel = %v, want ErrCancelled", err)
	}
}

// TestGoodCacheSharedAcrossKinds: a nodrop grade and an adi_order job
// over the same (circuit, patterns) pair share one good-machine
// simulation through the registry.
func TestGoodCacheSharedAcrossKinds(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	pat := PatternSpec{Random: &RandomSpec{N: 128, Seed: 9}}
	id1, err := s.Submit(JobSpec{Circuit: "c17", Mode: "nodrop", Patterns: pat})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, id1)
	id2, err := s.Submit(JobSpec{Kind: KindADIOrder, Circuit: "c17", Patterns: pat, Order: &OrderSpec{Kind: "decr"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id2); st.State != StateDone {
		t.Fatalf("adi_order job ended %q: %s", st.State, st.Error)
	}
	reg := s.Registry().Stats()
	if reg.GoodHits == 0 {
		t.Fatalf("adi_order job missed the good cache the grade job warmed: %+v", reg)
	}
}
