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

// FuzzWideKernels is the differential fuzz target for the parallel
// kernels: on a random small netlist and pattern set, RunParallelWith
// at every width must produce detection words, counts, first
// detections and ndet profiles identical to the sequential Run, the
// per-fault walk, in whichever mode the input selects. It runs both
// the collapsed and the full fault universe, so that every fanout
// stem's branch faults meet the stem-region kernel.
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
		ps := logic.RandomPatterns(c.NumInputs(), nv, prng.New(seed+0x9e3779b97f4a7c15))
		opts := fuzzOptions(modeSel)
		w := 1 + int(workers)%8
		for _, fl := range []*fault.List{fault.CollapsedUniverse(c), fault.Universe(c)} {
			if fl.Len() == 0 {
				continue
			}
			requireParallelMatchesRun(t, "fuzz", fl, ps, opts, w)
		}
	})
}

// fuzzOptions maps a fuzz byte to a mode: NoDrop, Drop, or NDetect
// with n from 1 to 4.
func fuzzOptions(sel uint8) Options {
	switch sel % 3 {
	case 1:
		return Options{Mode: Drop}
	case 2:
		return Options{Mode: NDetect, N: 1 + int(sel/3)%4}
	}
	return Options{Mode: NoDrop}
}

// requireParallelMatchesRun runs fl at every kernel width with the
// given worker count and fails unless each result equals Run's.
func requireParallelMatchesRun(t *testing.T, ctx string, fl *fault.List, ps *logic.PatternSet, opts Options, workers int) {
	t.Helper()
	ref := Run(fl, ps, opts)
	for _, width := range []int{64, 256, 512} {
		par := RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: workers, BlockWidth: width})
		requireEqualResults(t,
			fmt.Sprintf("%s/%s/faults=%d/bw=%d/workers=%d", ctx, opts.Mode.String(), fl.Len(), width, workers),
			ref, par)
	}
}

// FuzzStemRegions diffs RunParallelWith against Run on netlists built
// gate by gate from the fuzz bytes, so that every corner of the
// fanout-free region rule shows up: a gate feeding two pins of one
// sink, an observed gate with one fanout connection, XOR/XNOR chains,
// a primary input inside a region, dead gates, and ragged last blocks.
// It runs the full fault universe in all three modes, at every width,
// with 1 to 8 workers.
func FuzzStemRegions(f *testing.F) {
	f.Fuzz(func(t *testing.T, net []byte, seed uint64, nvec uint16, modeSel, workers uint8) {
		c := fuzzNetlist(t, net)
		fl := fault.Universe(c)
		ps := logic.RandomPatterns(c.NumInputs(), 1+int(nvec)%700, prng.New(seed))
		requireParallelMatchesRun(t, "regions", fl, ps, fuzzOptions(modeSel), 1+int(workers)%8)
	})
}

// fuzzNetlist decodes b into a netlist. b[0] picks 1 to 6 inputs. Each
// gate then reads a type byte (the low three bits pick one of the
// eight gate types, the next bits a fanin count of 2 to 4 for the
// multi-input ones), one byte per fanin choosing any earlier gate,
// repeats allowed, and one byte whose low bit marks the gate observed.
// Decoding stops at 40 gates or when b runs out; a netlist with no
// observed gate observes its last one.
func fuzzNetlist(t *testing.T, b []byte) *circuit.Circuit {
	t.Helper()
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	types := [...]circuit.GateType{circuit.Buf, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
	bld := circuit.NewBuilder("fz")
	n := 1 + next()%6
	for i := 0; i < n; i++ {
		bld.AddInput(fmt.Sprintf("i%d", i))
	}
	observed := false
	for g := 0; g < 40 && len(b) > 0; g++ {
		tb := next()
		typ := types[tb%8]
		nin := 1
		if typ.MinFanin() > 1 {
			nin = 2 + (tb/8)%3
		}
		fanin := make([]int, nin)
		for p := range fanin {
			fanin[p] = next() % n
		}
		bld.AddGate(fmt.Sprintf("g%d", g), typ, fanin...)
		if next()&1 == 1 {
			bld.MarkOutput(n)
			observed = true
		}
		n++
	}
	if !observed {
		bld.MarkOutput(n - 1)
	}
	c, err := bld.Freeze()
	if err != nil {
		t.Fatalf("decoded netlist rejected: %v", err)
	}
	return c
}
