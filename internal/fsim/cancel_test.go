package fsim

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

func c17Setup(t *testing.T, vectors int) (*fault.List, *logic.PatternSet) {
	t.Helper()
	c, err := benchdata.Load("c17")
	if err != nil {
		t.Fatal(err)
	}
	return fault.CollapsedUniverse(c), logic.RandomPatterns(c.NumInputs(), vectors, prng.New(11))
}

// TestRunParallelCtxCancelMidRun cancels a sharded run from the
// progress callback at a block barrier and checks the run stops within
// one further block, leaking no goroutines. Pinned to the scalar block
// width: the 64-pattern batch is the cancellation granularity this
// test asserts (see TestRunParallelCtxCancelWide for wide batches).
func TestRunParallelCtxCancelMidRun(t *testing.T) {
	fl, ps := c17Setup(t, 1024) // 16 blocks
	for _, workers := range []int{1, 3, 8} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		const cancelAt = 2
		r, err := RunParallelCtx(ctx, fl, ps, ParallelOptions{
			Options:    Options{Mode: NoDrop},
			Workers:    workers,
			BlockWidth: 64,
			Progress: func(p Progress) {
				if p.Block == cancelAt {
					cancel()
				}
			},
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The cancel lands at the barrier of block cancelAt; the poll at
		// the head of the next block stops the run.
		if want := (cancelAt + 1) * logic.WordBits; r.VectorsUsed != want {
			t.Fatalf("workers=%d: VectorsUsed = %d, want %d", workers, r.VectorsUsed, want)
		}
		if len(r.Ndet) != r.VectorsUsed {
			t.Fatalf("workers=%d: Ndet length %d, VectorsUsed %d", workers, len(r.Ndet), r.VectorsUsed)
		}
		cancel()
		// Workers are joined at the block barrier, so nothing should
		// outlive the call; allow the runtime a moment to retire stacks.
		leakDeadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(leakDeadline) {
			time.Sleep(time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Fatalf("workers=%d: goroutines %d -> %d after cancelled run", workers, before, now)
		}
	}
}

// TestRunParallelCtxCancelWide pins the cancellation granularity of
// the 512-pattern kernel: a cancel delivered during a superblock takes
// effect at the next superblock boundary, so the run stops on a
// 512-vector multiple with all progress events of the finished
// superblock delivered.
func TestRunParallelCtxCancelWide(t *testing.T) {
	fl, ps := c17Setup(t, 1024) // 16 blocks = 2 superblocks at width 512
	ctx, cancel := context.WithCancel(context.Background())
	var events []Progress
	r, err := RunParallelCtx(ctx, fl, ps, ParallelOptions{
		Options:    Options{Mode: NoDrop},
		Workers:    3,
		BlockWidth: 512,
		Progress: func(p Progress) {
			events = append(events, p)
			if p.Block == 2 {
				cancel() // mid-superblock: the batch still completes
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.VectorsUsed != 512 {
		t.Fatalf("VectorsUsed = %d, want 512 (one full superblock)", r.VectorsUsed)
	}
	if len(events) != 8 {
		t.Fatalf("got %d progress events, want 8 (all blocks of the finished superblock)", len(events))
	}
	if len(r.Ndet) != r.VectorsUsed {
		t.Fatalf("Ndet length %d, VectorsUsed %d", len(r.Ndet), r.VectorsUsed)
	}
	full := Run(fl, ps, Options{Mode: NoDrop})
	for u := 0; u < r.VectorsUsed; u++ {
		if r.Ndet[u] != full.Ndet[u] {
			t.Fatalf("partial ndet(%d) = %d, full run has %d", u, r.Ndet[u], full.Ndet[u])
		}
	}
}

// TestRunParallelCtxComplete checks the nil-error contract and result
// equality with the sequential path on an uncancelled context.
func TestRunParallelCtxComplete(t *testing.T) {
	fl, ps := c17Setup(t, 320)
	r, err := RunParallelCtx(context.Background(), fl, ps, ParallelOptions{
		Options: Options{Mode: Drop},
		Workers: 4,
	})
	if err != nil {
		t.Fatalf("uncancelled run returned %v", err)
	}
	want := Run(fl, ps, Options{Mode: Drop})
	if r.VectorsUsed != want.VectorsUsed || r.DetectedCount() != want.DetectedCount() {
		t.Fatalf("parallel ctx run diverged: %d/%d vs %d/%d",
			r.VectorsUsed, r.DetectedCount(), want.VectorsUsed, want.DetectedCount())
	}
}

func TestParseModeRejectsEmpty(t *testing.T) {
	if _, err := ParseMode(""); err == nil {
		t.Fatal("ParseMode(\"\") must be rejected; the default lives at the API boundary")
	}
	for name, want := range map[string]Mode{"nodrop": NoDrop, "drop": Drop, "ndetect": NDetect} {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
}
