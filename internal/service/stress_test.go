package service

import (
	"context"
	"fmt"
	"github.com/eda-go/adifo/internal/obs"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestEngineMixedKindsStress hammers one engine with all three job
// kinds at once — concurrent submits, subscribers, cancels and a
// final drain — and asserts the invariants the multi-kind refactor
// must preserve: no deadlock, no leaked goroutines, every job in a
// correct terminal state, and counters that add up. Run under -race
// (CI does) this doubles as the data-race check for the shared
// queue/pool/stream machinery.
func TestEngineMixedKindsStress(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Config{Logger: obs.Nop(), SimWorkers: 2, MaxConcurrentJobs: 3})
	specs := []JobSpec{
		{Circuit: "c17", Mode: "nodrop", Patterns: PatternSpec{Random: &RandomSpec{N: 192, Seed: 1}}},
		{Circuit: "c17", Mode: "drop", Patterns: PatternSpec{Random: &RandomSpec{N: 192, Seed: 2}}},
		{Circuit: "lion", Mode: "ndetect", N: 4, Patterns: PatternSpec{Random: &RandomSpec{N: 256, Seed: 3}}},
		{Kind: KindAtpg, Circuit: "c17", Patterns: PatternSpec{Random: &RandomSpec{N: 128, Seed: 4}}, Order: &OrderSpec{Kind: "dynm"}},
		{Kind: KindAtpg, Circuit: "lion", Patterns: PatternSpec{Random: &RandomSpec{N: 128, Seed: 5}}, Order: &OrderSpec{Kind: "orig"}, Gen: &GenSpec{FillSeed: 6}},
		{Kind: KindADIOrder, Circuit: "c17", Patterns: PatternSpec{Random: &RandomSpec{N: 128, Seed: 7}}, Order: &OrderSpec{Kind: "0dynm"}},
		{Kind: KindADIOrder, Circuit: "lion", Patterns: PatternSpec{Random: &RandomSpec{N: 128, Seed: 8}}, Order: &OrderSpec{Kind: "incr0"}},
	}

	const submitters = 4
	const perSubmitter = 8
	var (
		mu  sync.Mutex
		ids []string
	)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perSubmitter; i++ {
				spec := specs[rng.Intn(len(specs))]
				id, err := s.Submit(spec)
				if err != nil {
					t.Errorf("submit: %v", err)
					continue
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()

				// A third of the jobs get a stream that drains their
				// feed; a third get cancelled at a random point.
				switch rng.Intn(3) {
				case 0:
					wg.Add(1)
					go func(id string) {
						defer wg.Done()
						if _, err := s.Stream(context.Background(), id, nil); err != nil {
							t.Errorf("stream %s: %v", id, err)
						}
					}(id)
				case 1:
					delay := time.Duration(rng.Intn(3)) * time.Millisecond
					wg.Add(1)
					go func(id string) {
						defer wg.Done()
						time.Sleep(delay)
						s.Cancel(id)
					}(id)
				}
			}
		}(w)
	}
	wg.Wait()

	// Drain is the final act: it must terminate every remaining job
	// and return. A deadlock anywhere in the engine shows up as this
	// test timing out.
	s.Drain()

	if _, err := s.Submit(specs[0]); err != ErrDraining {
		t.Fatalf("Submit after Drain = %v, want ErrDraining", err)
	}

	var done, failed, cancelled uint64
	for _, id := range ids {
		st, ok := s.Status(id)
		if !ok {
			// Evicted finished jobs are legal; they were terminal.
			continue
		}
		switch st.State {
		case StateDone:
			done++
			if v, err := s.ResultAny(id); err != nil || v == nil {
				t.Errorf("done job %s has no result: %v", id, err)
			} else {
				switch st.Kind {
				case KindGrade:
					if _, ok := v.(*JobResult); !ok {
						t.Errorf("grade job %s result is %T", id, v)
					}
				case KindAtpg:
					if _, ok := v.(*AtpgResult); !ok {
						t.Errorf("atpg job %s result is %T", id, v)
					}
				case KindADIOrder:
					if _, ok := v.(*OrderResult); !ok {
						t.Errorf("adi_order job %s result is %T", id, v)
					}
				}
			}
		case StateFailed:
			failed++
			t.Errorf("job %s failed: %s", id, st.Error)
		case StateCancelled:
			cancelled++
		default:
			t.Errorf("job %s left in non-terminal state %q after Drain", id, st.State)
		}
	}
	stats := s.Stats()
	if stats.JobsSubmitted != uint64(len(ids)) {
		t.Errorf("submitted counter %d, submitted %d jobs", stats.JobsSubmitted, len(ids))
	}
	if got := stats.JobsDone + stats.JobsFailed + stats.JobsCancelled; got != stats.JobsSubmitted {
		t.Errorf("counters leak jobs: done %d + failed %d + cancelled %d != submitted %d",
			stats.JobsDone, stats.JobsFailed, stats.JobsCancelled, stats.JobsSubmitted)
	}
	if stats.JobsRunning != 0 || stats.JobsQueued != 0 {
		t.Errorf("%d running, %d queued after Drain", stats.JobsRunning, stats.JobsQueued)
	}

	// The /metrics exposition must reconcile with the Stats snapshot
	// after the dust settles: both views are fed by the same terminal
	// transitions, so any drift means a path that updates one and not
	// the other (the original motivation for funneling every terminal
	// path through one helper).
	text := scrapeText(t, s)
	if got := metricValue(t, text, "adifo_jobs_submitted_total"); got != float64(stats.JobsSubmitted) {
		t.Errorf("metric jobs_submitted %v != stats %d", got, stats.JobsSubmitted)
	}
	terminal := stats.JobsDone + stats.JobsFailed + stats.JobsCancelled
	if got := metricValue(t, text, "adifo_jobs_total"); got != float64(terminal) {
		t.Errorf("metric jobs_total %v != stats terminal sum %d", got, terminal)
	}
	for series, want := range map[string]float64{
		`adifo_jobs_queued`:  0,
		`adifo_jobs_running`: 0,
		`adifo_draining`:     1,
	} {
		if got := metricValue(t, text, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	byStatus := map[string]uint64{
		StateDone: stats.JobsDone, StateFailed: stats.JobsFailed, StateCancelled: stats.JobsCancelled,
	}
	for status, want := range byStatus {
		got := 0.0
		for _, kind := range KindNames() {
			got += metricValue(t, text,
				`adifo_jobs_total{kind="`+kind+`",status="`+status+`"}`)
		}
		if got != float64(want) {
			t.Errorf("metric jobs_total status=%s sums to %v, stats say %d", status, got, want)
		}
	}
	t.Logf("stress: %d done, %d failed, %d cancelled of %d", done, failed, cancelled, len(ids))

	// Goroutine leak check: everything the engine spawned must be
	// gone. Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseline, fmt.Sprintf("%.3000s", buf[:n]))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
