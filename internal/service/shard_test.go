package service

import (
	"context"
	"github.com/eda-go/adifo/internal/obs"
	"strings"
	"testing"
)

// TestShardRangePartition: the shard ranges partition [0, n) exactly,
// in order, for any (n, count).
func TestShardRangePartition(t *testing.T) {
	for _, n := range []int{0, 1, 5, 22, 100, 1237} {
		for count := 1; count <= 7; count++ {
			next := 0
			for i := 0; i < count; i++ {
				lo, hi := ShardRange(n, i, count)
				if lo != next || hi < lo {
					t.Fatalf("ShardRange(%d, %d, %d) = [%d, %d), want lo %d", n, i, count, lo, hi, next)
				}
				if size := hi - lo; size != n/count && size != n/count+1 {
					t.Fatalf("ShardRange(%d, %d, %d) size %d not balanced", n, i, count, size)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("shards over n=%d count=%d cover [0, %d)", n, count, next)
			}
		}
	}
}

func shardSpec(fs *FaultShard) JobSpec {
	return JobSpec{
		Circuit:    "c17",
		Mode:       "nodrop",
		Patterns:   PatternSpec{Exhaustive: true},
		FaultShard: fs,
	}
}

// TestSubmitShardValidation: malformed shard selectors and the
// incompatible stop_at_coverage combination are rejected at submit.
func TestSubmitShardValidation(t *testing.T) {
	s := New(Config{Logger: obs.Nop()})
	defer s.Close()
	if _, err := s.Submit(shardSpec(&FaultShard{Index: 0, Count: 0})); err == nil {
		t.Fatal("count 0 must be rejected")
	}
	if _, err := s.Submit(shardSpec(&FaultShard{Index: -1, Count: 2})); err == nil {
		t.Fatal("negative index must be rejected")
	}
	if _, err := s.Submit(shardSpec(&FaultShard{Index: 2, Count: 2})); err == nil {
		t.Fatal("index >= count must be rejected")
	}
	bad := shardSpec(&FaultShard{Index: 0, Count: 2})
	bad.Mode = "drop"
	bad.StopAtCoverage = 0.9
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("fault_shard + stop_at_coverage must be rejected")
	}
	if _, err := s.Submit(shardSpec(&FaultShard{Index: 1, Count: 2})); err != nil {
		t.Fatalf("valid shard spec rejected: %v", err)
	}
}

// TestSubmitWorkersValidation: out-of-range worker counts are rejected
// at submit time instead of being silently clamped.
func TestSubmitWorkersValidation(t *testing.T) {
	s := New(Config{Logger: obs.Nop(), SimWorkers: 2})
	defer s.Close()
	spec := JobSpec{Circuit: "c17", Mode: "nodrop", Patterns: PatternSpec{Exhaustive: true}}

	spec.Workers = -1
	if _, err := s.Submit(spec); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("negative workers: %v, want workers range error", err)
	}
	spec.Workers = 3
	if _, err := s.Submit(spec); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("workers above SimWorkers: %v, want workers range error", err)
	}
	for _, w := range []int{0, 1, 2} {
		spec.Workers = w
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("workers %d rejected: %v", w, err)
		}
	}
}

// waitResult waits for a job's terminal state via its progress feed.
func waitResult(t *testing.T, s *Service, id string) *JobResult {
	t.Helper()
	s.Stream(context.Background(), id, nil)
	res, err := s.Result(id)
	if err != nil {
		t.Fatalf("job %s: %v", id, err)
	}
	return res
}

// TestShardedJobsComposeToUnsharded runs the same grading job whole
// and as 3 fault shards on one service, and checks — without the
// cluster merge layer — that the shard results compose exactly: F
// indices are global and contiguous, per-fault rows equal the
// unsharded rows, per-vector ndet sums match, and vectors-used is the
// max over shards.
func TestShardedJobsComposeToUnsharded(t *testing.T) {
	for _, mode := range []string{"nodrop", "drop", "ndetect"} {
		t.Run(mode, func(t *testing.T) {
			s := New(Config{Logger: obs.Nop(), MaxConcurrentJobs: 4})
			defer s.Close()
			spec := JobSpec{
				Circuit:  "c17",
				Mode:     mode,
				Patterns: PatternSpec{Random: &RandomSpec{N: 256, Seed: 9}},
			}
			if mode == "ndetect" {
				spec.N = 2
			}
			fullID, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			full := waitResult(t, s, fullID)
			if full.FaultShard != nil || full.Faults != full.TotalFaults {
				t.Fatalf("unsharded result unexpectedly sharded: %+v", full.FaultShard)
			}

			const count = 3
			var shards []*JobResult
			for i := 0; i < count; i++ {
				sub := spec
				sub.FaultShard = &FaultShard{Index: i, Count: count}
				id, err := s.Submit(sub)
				if err != nil {
					t.Fatal(err)
				}
				shards = append(shards, waitResult(t, s, id))
			}

			ndet := make([]int, 0)
			vectorsUsed, detected, nextF := 0, 0, 0
			for i, r := range shards {
				lo, hi := ShardRange(full.TotalFaults, i, count)
				if r.Faults != hi-lo || r.TotalFaults != full.TotalFaults {
					t.Fatalf("shard %d graded %d faults, want %d", i, r.Faults, hi-lo)
				}
				if r.Fingerprint != full.Fingerprint {
					t.Fatalf("shard %d fingerprint %s != %s", i, r.Fingerprint, full.Fingerprint)
				}
				if r.VectorsUsed > vectorsUsed {
					vectorsUsed = r.VectorsUsed
				}
				detected += r.Detected
				if len(r.Ndet) > len(ndet) {
					ndet = append(ndet, make([]int, len(r.Ndet)-len(ndet))...)
				}
				for u, v := range r.Ndet {
					ndet[u] += v
				}
				for _, fr := range r.PerFault {
					if fr.F != nextF {
						t.Fatalf("shard %d: fault index %d, want %d", i, fr.F, nextF)
					}
					want := full.PerFault[nextF]
					if fr.Name != want.Name || fr.DetCount != want.DetCount || fr.FirstDet != want.FirstDet {
						t.Fatalf("fault %d diverges: shard %+v vs full %+v", nextF, fr, want)
					}
					if len(fr.Det) != len(want.Det) {
						t.Fatalf("fault %d detection set size %d vs %d", nextF, len(fr.Det), len(want.Det))
					}
					for k := range fr.Det {
						if fr.Det[k] != want.Det[k] {
							t.Fatalf("fault %d detection set diverges at %d", nextF, k)
						}
					}
					nextF++
				}
			}
			if nextF != full.TotalFaults {
				t.Fatalf("shards cover %d of %d faults", nextF, full.TotalFaults)
			}
			if vectorsUsed != full.VectorsUsed {
				t.Fatalf("max shard vectors-used %d != unsharded %d", vectorsUsed, full.VectorsUsed)
			}
			if detected != full.Detected {
				t.Fatalf("summed detected %d != unsharded %d", detected, full.Detected)
			}
			if len(ndet) != len(full.Ndet) {
				t.Fatalf("summed ndet length %d != unsharded %d", len(ndet), len(full.Ndet))
			}
			for u := range ndet {
				if ndet[u] != full.Ndet[u] {
					t.Fatalf("ndet[%d]: summed %d != unsharded %d", u, ndet[u], full.Ndet[u])
				}
			}
		})
	}
}

// TestDrainRejectsAndCancels: Drain stops submissions with ErrDraining
// and drives running jobs to a terminal state.
func TestDrainRejectsAndCancels(t *testing.T) {
	s := New(Config{Logger: obs.Nop(), MaxConcurrentJobs: 2})
	spec := JobSpec{
		Circuit:  "c17",
		Mode:     "nodrop",
		Patterns: PatternSpec{Random: &RandomSpec{N: 1 << 15, Seed: 1}},
	}
	var ids []string
	for i := 0; i < 3; i++ { // more jobs than slots: one stays queued
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Drain()
	if _, err := s.Submit(spec); err != ErrDraining {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
	for _, id := range ids {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State != StateCancelled && st.State != StateDone {
			t.Fatalf("job %s left in state %s after drain", id, st.State)
		}
	}
	// Idempotent.
	s.Drain()
}
