package fsim

import (
	"fmt"
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// TestRunParallelWidthBitIdentity is the property the whole wide-block
// design rests on: every kernel block width produces results
// bit-identical to the sequential scalar reference, in every mode, at
// every worker count. 130 patterns exercise superblocks that are
// ragged from the start (3 blocks at width 256, 3 at width 512);
// 600 patterns exercise full superblocks plus partial tails.
func TestRunParallelWidthBitIdentity(t *testing.T) {
	modes := []Options{{Mode: NoDrop}, {Mode: Drop}, {Mode: NDetect, N: 2}}
	for _, nvec := range []int{130, 600} {
		for seed := uint64(1); seed <= 2; seed++ {
			c := gen.Generate(gen.Config{Name: "wb", Inputs: 10, Gates: 150, Seed: seed})
			fl := fault.CollapsedUniverse(c)
			ps := logic.RandomPatterns(c.NumInputs(), nvec, prng.New(seed))
			for _, opts := range modes {
				seq := Run(fl, ps, opts)
				for _, width := range []int{64, 256, 512} {
					for _, workers := range []int{1, 3, 8} {
						par := RunParallelWith(fl, ps, ParallelOptions{
							Options: opts, Workers: workers, BlockWidth: width,
						})
						requireEqualResults(t,
							fmt.Sprintf("%s/n=%d/seed=%d/bw=%d/workers=%d",
								opts.Mode.String(), nvec, seed, width, workers),
							seq, par)
					}
				}
			}
		}
	}
}

// TestRunParallelWidthEdgeCases re-runs the 1-fault and workers>faults
// edge cases (covered for the scalar path in parallel_test.go) at the
// wide widths.
func TestRunParallelWidthEdgeCases(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "we", Inputs: 8, Gates: 60, Seed: 7})
	full := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 330, prng.New(7))
	for _, nf := range []int{1, 5} {
		fl := &fault.List{Circuit: c, Faults: full.Faults[:nf]}
		for _, opts := range []Options{{Mode: NoDrop}, {Mode: Drop}, {Mode: NDetect, N: 2}} {
			seq := Run(fl, ps, opts)
			for _, width := range []int{256, 512} {
				par := RunParallelWith(fl, ps, ParallelOptions{
					Options: opts, Workers: 64, BlockWidth: width,
				})
				requireEqualResults(t,
					fmt.Sprintf("%s/faults=%d/bw=%d/workers=64", opts.Mode.String(), nf, width),
					seq, par)
			}
		}
	}
}

// TestRunParallelWideWithGood checks the cached-good path at wide
// widths: lanes gathered from the 64-wide Good storage must match the
// on-the-fly wide good simulation.
func TestRunParallelWideWithGood(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "wg", Inputs: 10, Gates: 120, Seed: 9})
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 600, prng.New(9))
	good := ComputeGoodCompiled(circuit.Compile(c), ps)
	for _, opts := range []Options{{Mode: NoDrop}, {Mode: Drop}} {
		seq := Run(fl, ps, opts)
		for _, width := range []int{256, 512} {
			par := RunParallelWith(fl, ps, ParallelOptions{
				Options: opts, Workers: 4, BlockWidth: width, Good: good,
			})
			requireEqualResults(t,
				fmt.Sprintf("%s/bw=%d/good-cache", opts.Mode.String(), width), seq, par)
		}
	}
}

// TestRunParallelCompiledOption checks that supplying a pre-compiled
// circuit changes nothing, and that a compiled form of a structurally
// identical circuit under a different pointer is accepted, together
// with good values computed from it (the fingerprint-keyed registry
// cache shares compiled forms that way), while a genuinely different
// circuit panics.
func TestRunParallelCompiledOption(t *testing.T) {
	cfg := gen.Config{Name: "wc", Inputs: 10, Gates: 120, Seed: 4}
	c := gen.Generate(cfg)
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 300, prng.New(4))
	seq := Run(fl, ps, Options{Mode: NoDrop})

	cc := circuit.Compile(c)
	par := RunParallelWith(fl, ps, ParallelOptions{Workers: 3, Compiled: cc})
	requireEqualResults(t, "compiled/same-pointer", seq, par)

	twin := gen.Generate(cfg) // same structure, different pointer
	twinCC := circuit.Compile(twin)
	par = RunParallelWith(fl, ps, ParallelOptions{Workers: 3, Compiled: twinCC})
	requireEqualResults(t, "compiled/structural-twin", seq, par)
	par = RunParallelWith(fl, ps, ParallelOptions{Workers: 3, Compiled: twinCC, Good: ComputeGoodCompiled(twinCC, ps)})
	requireEqualResults(t, "good/structural-twin", seq, par)

	other := gen.Generate(gen.Config{Name: "other", Inputs: 10, Gates: 120, Seed: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a compiled form of a different circuit")
		}
	}()
	RunParallelWith(fl, ps, ParallelOptions{Workers: 3, Compiled: circuit.Compile(other)})
}

func TestRunParallelPanicsOnBadBlockWidth(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "wb", Inputs: 4, Gates: 10, Seed: 1})
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(4, 64, prng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunParallelWith(fl, ps, ParallelOptions{BlockWidth: 128})
}

// FuzzWideKernels is the differential fuzz target for the wide-block
// kernels: on a random small netlist and pattern set, the 256- and
// 512-wide paths must produce detection words, counts, first
// detections and ndet profiles identical to the scalar 64-pattern
// reference, in whichever mode the input selects.
func FuzzWideKernels(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(40), uint16(200), uint8(0), uint8(3))
	f.Add(uint64(2), uint8(10), uint8(90), uint16(513), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(3), uint8(12), uint16(64), uint8(2), uint8(8))
	f.Add(uint64(4), uint8(12), uint8(120), uint16(300), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, inputs, gates uint8, nvec uint16, modeSel, workers uint8) {
		ni := 2 + int(inputs)%13 // 2..14
		ng := 1 + int(gates)%140 // 1..140
		nv := 1 + int(nvec)%700  // 1..700: ragged and multi-superblock
		c := gen.Generate(gen.Config{Name: "fz", Inputs: ni, Gates: ng, Seed: seed})
		fl := fault.CollapsedUniverse(c)
		if fl.Len() == 0 {
			return
		}
		ps := logic.RandomPatterns(c.NumInputs(), nv, prng.New(seed+0x9e3779b97f4a7c15))
		var opts Options
		switch modeSel % 3 {
		case 0:
			opts = Options{Mode: NoDrop}
		case 1:
			opts = Options{Mode: Drop}
		case 2:
			opts = Options{Mode: NDetect, N: 1 + int(modeSel/3)%4}
		}
		ref := RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: 1, BlockWidth: 64})
		w := 1 + int(workers)%8
		for _, width := range []int{256, 512} {
			wide := RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: w, BlockWidth: width})
			requireEqualResults(t,
				fmt.Sprintf("fuzz/%s/bw=%d/workers=%d", opts.Mode.String(), width, w),
				ref, wide)
		}
	})
}
