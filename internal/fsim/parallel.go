package fsim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/logic"
)

// Good holds precomputed good-machine value words for every 64-pattern
// block of one (circuit, pattern set) pair. Computing it once and
// sharing it read-only lets repeated fault-grading runs over the same
// inputs — and all workers inside one run — skip the good simulation
// entirely; the service registry caches Good values under LRU
// eviction. The storage stays 64-pattern-wide regardless of the kernel
// block width: wide runs gather lanes from it per superblock.
type Good struct {
	cc     *circuit.Compiled
	ps     *logic.PatternSet
	blocks [][]circuit.W1
}

// ComputeGoodCompiled simulates the fault-free circuit cc against
// every block of ps and stores the per-gate value words.
func ComputeGoodCompiled(cc *circuit.Compiled, ps *logic.PatternSet) *Good {
	if ps.Inputs() != cc.NumInputs() {
		panic(fmt.Sprintf("fsim: pattern set has %d inputs, circuit has %d", ps.Inputs(), cc.NumInputs()))
	}
	g := &Good{cc: cc, ps: ps, blocks: make([][]circuit.W1, ps.Blocks())}
	pi := make([]circuit.W1, ps.Inputs())
	scratch := make([]circuit.W1, cc.MaxFanin)
	for b := range g.blocks {
		for i := range pi {
			pi[i] = circuit.W1(ps.Word(i, b))
		}
		g.blocks[b] = make([]circuit.W1, cc.NumGates())
		simGoodInto(cc, pi, g.blocks[b], scratch)
	}
	return g
}

// Progress is a per-block snapshot of a running batch simulation,
// delivered at each block barrier.
type Progress struct {
	Block       int // index of the block just finished
	Blocks      int // total blocks in the pattern set
	VectorsUsed int // vectors simulated so far
	Detected    int // faults detected at least once so far
	Active      int // faults still active after this block's drops
}

// ParallelOptions configures RunParallelWith. The embedded Options
// select the dropping policy exactly as for the sequential Run.
type ParallelOptions struct {
	Options

	// Workers is the number of simulation goroutines; <= 0 means
	// GOMAXPROCS. The worker count never changes results, only speed.
	Workers int

	// BlockWidth overrides the kernel block width in patterns: 64
	// (scalar), 256 or 512. Zero picks the widest width the pattern
	// count justifies. Any other value panics (see CheckBlockWidth). The
	// width never changes results, only speed; runs with StopAtCoverage
	// > 0 always execute at width 64 so the early stop triggers on
	// exactly the same block as the sequential reference.
	BlockWidth int

	// Compiled, when non-nil, supplies an existing compiled form of
	// fl.Circuit (the service registry caches one per netlist
	// fingerprint); it must match the circuit structurally. When nil
	// the circuit is compiled on entry.
	Compiled *circuit.Compiled

	// Good, when non-nil, supplies precomputed good-machine values for
	// (fl.Circuit, ps); it must have been computed on ps from a
	// compiled form that Compiled would accept. When nil the good
	// machine is simulated on the fly.
	Good *Good

	// Progress, when non-nil, is called after every block barrier with
	// the run's state. It is called from the coordinating goroutine,
	// never concurrently. Wide kernels simulate several 64-pattern
	// blocks per barrier; their per-block events are delivered
	// back-to-back at the barrier, in block order.
	Progress func(Progress)
}

// RunParallelWith simulates every fault of fl against ps under the
// given options with a pool of workers, in any of the three modes.
// Results are bit-for-bit identical to the sequential Run, although
// the workers simulate by fanout-free region where Run walks one cone
// per fault: workers simulate one block batch independently over
// disjoint shards of the active list, then synchronize at the barrier
// where detections are merged, per-vector ndet counters are summed and
// the shared active list is compacted (drop reconciliation). Dropping
// decisions are per-fault — a fault drops when its own detection count
// crosses the mode threshold, counted in vector order — so neither the
// worker shard layout, the active-list iteration order, nor the kernel
// block width changes which vectors count; only when the bookkeeping
// happens.
//
// fl is never mutated and may be shared (cached) across concurrent
// runs; each run carries its drop state in a private active list.
//
// It is RunParallelCtx without cancellation.
func RunParallelWith(fl *fault.List, ps *logic.PatternSet, po ParallelOptions) *Result {
	r, _ := RunParallelCtx(context.Background(), fl, ps, po)
	return r
}

// RunParallelCtx is RunParallelWith with cooperative cancellation: ctx
// is polled at every barrier, before the workers are dispatched for
// the next block batch, so a cancelled run stops within one batch
// (64 patterns at the scalar width, up to 512 at the widest) and leaks
// no goroutines (workers are per-batch and always joined at the
// barrier). On cancellation it returns the partial result together
// with ctx.Err(); the error is nil on a completed run.
func RunParallelCtx(ctx context.Context, fl *fault.List, ps *logic.PatternSet, po ParallelOptions) (*Result, error) {
	r := newResult(fl, ps, po.Options)
	c := fl.Circuit
	// The Good cache is keyed by deterministic (circuit, pattern spec)
	// keys, so content equality of the pattern sets is the caller's
	// contract; only the cheap structural mismatches are caught here.
	if po.Good != nil && (!compiledFrom(po.Good.cc, c) ||
		po.Good.ps.Len() != ps.Len() || po.Good.ps.Inputs() != ps.Inputs()) {
		panic("fsim: ParallelOptions.Good computed on a different circuit or pattern set")
	}
	cc := po.Compiled
	if cc == nil {
		cc = circuit.Compile(c)
	} else if !compiledFrom(cc, c) {
		panic("fsim: ParallelOptions.Compiled compiled from a different circuit")
	}
	switch pickLanes(po, ps) {
	case 4:
		return runParallel[circuit.W4](ctx, r, ps, po, cc)
	case 8:
		return runParallel[circuit.W8](ctx, r, ps, po, cc)
	default:
		return runParallel[circuit.W1](ctx, r, ps, po, cc)
	}
}

// CheckBlockWidth returns an error naming the setting field unless w is
// a BlockWidth that RunParallelCtx accepts: 0 (automatic), 64, 256 or
// 512 patterns.
func CheckBlockWidth(field string, w int) error {
	switch w {
	case 0, 64, 256, 512:
		return nil
	}
	return fmt.Errorf("%s %d invalid; want 0 (auto), 64, 256 or 512", field, w)
}

// pickLanes maps the configured block width to a lane count. The
// automatic choice (BlockWidth 0) is mode-aware: NoDrop walks every
// region's stem cone for every pattern, so the widest block the
// pattern count justifies amortizes the walk 4–8×; in the dropping
// modes most faults drop early and a wide block makes the survivors
// pay full-width passes and stem walks for patterns they never reach.
// Re-measured on the stem-region kernel (2 workers, 2 vCPU), W1/W4/W8
// took 25/34/41 ms on a 2,400-gate drop run and 27/33/37 ms on its
// n-detect run, and tied on a 546-gate drop run, so the dropping
// modes stay scalar unless the caller overrides.
func pickLanes(po ParallelOptions, ps *logic.PatternSet) int {
	if err := CheckBlockWidth("BlockWidth", po.BlockWidth); err != nil {
		panic("fsim: " + err.Error())
	}
	if po.StopAtCoverage > 0 {
		// The sequential reference checks the coverage stop per
		// 64-pattern block; running scalar keeps the stopping point
		// bit-identical.
		return 1
	}
	if po.BlockWidth != 0 {
		return po.BlockWidth / 64
	}
	if po.Mode != NoDrop {
		return 1
	}
	switch {
	case ps.Len() >= 512:
		return 8
	case ps.Len() >= 256:
		return 4
	default:
		return 1
	}
}

// runParallel is the width-generic body of RunParallelCtx; it fills r,
// the empty result of r.List over ps. One iteration of the outer loop
// processes a superblock of Lanes() 64-pattern blocks: the good
// machine is evaluated once for the whole superblock, each worker
// simulates its shard of whole fanout-free regions once (kern.region),
// and per-fault accounting iterates the detection block's lanes in
// pattern order so dropping and n-detect truncation happen at
// precisely the same vector as in the scalar reference.
func runParallel[B circuit.Block[B]](ctx context.Context, r *Result, ps *logic.PatternSet, po ParallelOptions, cc *circuit.Compiled) (*Result, error) {
	var zb B
	lanes := zb.Lanes()
	fl := r.List
	nf := fl.Len()
	workers := po.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nf {
		workers = nf
	}
	if workers < 1 {
		workers = 1
	}

	// Shared good-value arena for the current superblock: the
	// coordinator refills it between barriers, all worker kernels read
	// it concurrently. Unpopulated tail lanes of the last superblock
	// stay zero — lanes are independent, so their garbage results are
	// never read (the accounting loop stops at the last real block).
	goodVals := make([]B, cc.NumGates())
	var pi, scratch []B
	if po.Good == nil {
		pi = make([]B, ps.Inputs())
		scratch = make([]B, cc.MaxFanin)
	}
	kerns := make([]*kern[B], workers)
	for w := range kerns {
		kerns[w] = newKern[B](cc, false)
		kerns[w].good = goodVals
	}

	// Per-worker accumulators, merged at the barrier. ndet is the only
	// cross-fault shared counter; the per-lane first-detection and drop
	// counts reconstruct the per-64-block progress stream, and maxDrop
	// tracks the latest block with a drop for the early-exit
	// VectorsUsed (monotone, so it needs no per-batch reset).
	ndetLocal := make([][]int, workers)
	newDetLane := make([][]int, workers)
	dropLane := make([][]int, workers)
	maxDrop := make([]int, workers)
	for w := 0; w < workers; w++ {
		ndetLocal[w] = make([]int, lanes*logic.WordBits)
		newDetLane[w] = make([]int, lanes)
		dropLane[w] = make([]int, lanes)
	}

	// active holds the not-yet-dropped fault indices, grouped by
	// region; the barrier compacts it in place.
	active := regionOrder(fl, cc)
	root := func(p int) int32 { return cc.Root[fl.Faults[active[p]].Gate] }
	keep := make([]bool, nf) // keep[p] decided by position in the active list
	detected := 0

	blocks := ps.Blocks()
	var wg sync.WaitGroup
	for firstBlock := 0; firstBlock < blocks; firstBlock += lanes {
		if err := ctx.Err(); err != nil {
			r.Ndet = r.Ndet[:r.VectorsUsed]
			return r, err
		}
		nLanes := lanes
		if firstBlock+nLanes > blocks {
			nLanes = blocks - firstBlock
		}

		// Fill the shared good arena: gather lanes from the 64-wide
		// cache, or simulate the whole superblock in one wide pass.
		if po.Good != nil {
			for l := 0; l < nLanes; l++ {
				blk := po.Good.blocks[firstBlock+l]
				if l == 0 {
					for gi, w := range blk {
						goodVals[gi] = zb.SetLane(0, uint64(w))
					}
				} else {
					for gi, w := range blk {
						goodVals[gi] = goodVals[gi].SetLane(l, uint64(w))
					}
				}
			}
		} else {
			for i := range pi {
				v := zb
				for l := 0; l < nLanes; l++ {
					v = v.SetLane(l, ps.Word(i, firstBlock+l))
				}
				pi[i] = v
			}
			simGoodInto(cc, pi, goodVals, scratch)
		}

		// Each worker's chunk ends at a region boundary, so no region
		// is split between workers and no stem walk is repeated.
		n := len(active)
		chunk := (n + workers - 1) / workers
		lo := 0
		for w := 0; w < workers; w++ {
			hi := max(min((w+1)*chunk, n), lo)
			for hi > lo && hi < n && root(hi) == root(hi-1) {
				hi++
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				k := kerns[w]
				local := ndetLocal[w]
				ndl := newDetLane[w]
				dl := dropLane[w]
				for p := lo; p < hi; {
					stem := root(p)
					q := p + 1
					for q < hi && root(q) == stem {
						q++
					}
					for i, det := range k.region(fl.Faults, active[p:q], stem) {
						fi := active[p+i]
						kp := true
						for l := 0; l < nLanes; l++ {
							block := firstBlock + l
							d := det.Lane(l) & ps.BlockMask(block)
							if po.Mode == NDetect && d != 0 {
								// Count detections in vector order and stop
								// exactly at the n-th, so DetCount and ndet
								// are block-size independent (same rule as
								// Run).
								d = keepLowestBits(d, po.N-r.DetCount[fi])
							}
							if d != 0 {
								r.DetCount[fi] += bits.OnesCount64(d)
								if r.FirstDet[fi] < 0 {
									r.FirstDet[fi] = block*logic.WordBits + bits.TrailingZeros64(d)
									ndl[l]++
								}
								if r.Det != nil {
									r.Det[fi].OrWord(block, d)
								}
								lb := l * logic.WordBits
								for dd := d; dd != 0; dd &= dd - 1 {
									local[lb+bits.TrailingZeros64(dd)]++
								}
							}
							dropped := false
							switch po.Mode {
							case Drop:
								dropped = r.DetCount[fi] > 0
							case NDetect:
								dropped = r.DetCount[fi] >= po.N
							}
							if dropped {
								// Later lanes are vectors this fault never
								// reaches in the sequential reference.
								kp = false
								dl[l]++
								if block > maxDrop[w] {
									maxDrop[w] = block
								}
								break
							}
						}
						keep[p+i] = kp
					}
					p = q
				}
			}(w, lo, hi)
			lo = hi
		}
		wg.Wait()

		// Barrier: merge (and zero) the per-worker counters and
		// reconcile drops by compacting the shared list. Zeroing
		// happens here rather than in the workers because a worker
		// whose shard is empty this batch never runs, yet its
		// accumulator is still merged.
		vecBase := firstBlock * logic.WordBits
		for w := 0; w < workers; w++ {
			local := ndetLocal[w]
			for idx, cnt := range local {
				if cnt != 0 {
					r.Ndet[vecBase+idx] += cnt
					local[idx] = 0
				}
			}
		}
		if po.Mode != NoDrop {
			w := 0
			for p, fi := range active {
				if keep[p] {
					active[w] = fi
					w++
				}
			}
			active = active[:w]
		}

		// On an emptying batch the run used exactly the vectors up to
		// the last dropping block, as the sequential reference would
		// have stopped there; no fault contributes anything past its
		// own drop lane, so later lanes of this superblock are unused.
		emptied := po.Mode != NoDrop && len(active) == 0
		lastLane := nLanes - 1
		if emptied {
			m := 0
			for w := 0; w < workers; w++ {
				if maxDrop[w] > m {
					m = maxDrop[w]
				}
			}
			lastLane = m - firstBlock
		}
		r.VectorsUsed = min((firstBlock+lastLane+1)*logic.WordBits, ps.Len())

		// Reconstruct the per-64-block progress stream from the
		// per-lane counters (and zero them for the next batch).
		dropsSoFar := 0
		for l := 0; l < nLanes; l++ {
			for w := 0; w < workers; w++ {
				detected += newDetLane[w][l]
				dropsSoFar += dropLane[w][l]
				newDetLane[w][l] = 0
				dropLane[w][l] = 0
			}
			if po.Progress != nil && l <= lastLane {
				po.Progress(Progress{
					Block:       firstBlock + l,
					Blocks:      blocks,
					VectorsUsed: min((firstBlock+l+1)*logic.WordBits, ps.Len()),
					Detected:    detected,
					Active:      n - dropsSoFar,
				})
			}
		}

		if po.StopAtCoverage > 0 &&
			float64(detected) >= po.StopAtCoverage*float64(nf) {
			break
		}
		if emptied {
			break
		}
	}
	r.Ndet = r.Ndet[:r.VectorsUsed]
	return r, nil
}
