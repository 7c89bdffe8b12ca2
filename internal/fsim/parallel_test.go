package fsim

import (
	"strconv"
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// requireEqualResults asserts par is bit-for-bit identical to seq.
func requireEqualResults(t *testing.T, ctx string, seq, par *Result) {
	t.Helper()
	if par.VectorsUsed != seq.VectorsUsed {
		t.Fatalf("%s: VectorsUsed %d vs %d", ctx, par.VectorsUsed, seq.VectorsUsed)
	}
	for fi := range seq.DetCount {
		if par.DetCount[fi] != seq.DetCount[fi] {
			t.Fatalf("%s fault %d: DetCount %d vs %d", ctx, fi, par.DetCount[fi], seq.DetCount[fi])
		}
		if par.FirstDet[fi] != seq.FirstDet[fi] {
			t.Fatalf("%s fault %d: FirstDet %d vs %d", ctx, fi, par.FirstDet[fi], seq.FirstDet[fi])
		}
	}
	if (par.Det == nil) != (seq.Det == nil) {
		t.Fatalf("%s: Det presence differs (par %v, seq %v)", ctx, par.Det != nil, seq.Det != nil)
	}
	if seq.Det != nil {
		for fi := range seq.Det {
			for w := 0; w*logic.WordBits < seq.Det[fi].Len(); w++ {
				if par.Det[fi].WordAt(w) != seq.Det[fi].WordAt(w) {
					t.Fatalf("%s fault %d: Det word %d differs", ctx, fi, w)
				}
			}
		}
	}
	if len(par.Ndet) != len(seq.Ndet) {
		t.Fatalf("%s: Ndet length %d vs %d", ctx, len(par.Ndet), len(seq.Ndet))
	}
	for u := range seq.Ndet {
		if par.Ndet[u] != seq.Ndet[u] {
			t.Fatalf("%s: ndet(%d) %d vs %d", ctx, u, par.Ndet[u], seq.Ndet[u])
		}
	}
}

// TestRunParallelMatchesSequential checks the bit-identical guarantee
// across all three modes, worker counts on both sides of the fault
// count, and multiple circuits.
func TestRunParallelMatchesSequential(t *testing.T) {
	modes := []Options{
		{Mode: NoDrop},
		{Mode: Drop},
		{Mode: NDetect, N: 1},
		{Mode: NDetect, N: 3},
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			c := gen.Generate(gen.Config{Name: "p", Inputs: 10, Gates: 120, Seed: seed})
			fl := fault.CollapsedUniverse(c)
			ps := logic.RandomPatterns(c.NumInputs(), 200, prng.New(seed))
			for _, opts := range modes {
				seq := Run(fl, ps, opts)
				par := RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: workers})
				ctx := opts.Mode.String()
				requireEqualResults(t,
					ctx+"/workers="+strconv.Itoa(workers)+"/seed="+strconv.Itoa(int(seed)), seq, par)
			}
		}
	}
}

// TestRunParallelSingleFault covers the 1-fault edge case, where every
// worker count collapses to a single shard.
func TestRunParallelSingleFault(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "p1", Inputs: 8, Gates: 60, Seed: 7})
	full := fault.CollapsedUniverse(c)
	fl := &fault.List{Circuit: c, Faults: full.Faults[:1]}
	ps := logic.RandomPatterns(c.NumInputs(), 130, prng.New(7))
	for _, opts := range []Options{{Mode: NoDrop}, {Mode: Drop}, {Mode: NDetect, N: 2}} {
		seq := Run(fl, ps, opts)
		for _, workers := range []int{1, 4, 16} {
			par := RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: workers})
			requireEqualResults(t, opts.Mode.String()+"/1-fault/workers="+strconv.Itoa(workers), seq, par)
		}
	}
}

// TestRunParallelWorkersExceedFaults pins the workers > faults case on
// a non-trivial list: the pool must clamp, not deadlock or skip shards.
func TestRunParallelWorkersExceedFaults(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "pw", Inputs: 8, Gates: 40, Seed: 11})
	full := fault.CollapsedUniverse(c)
	fl := &fault.List{Circuit: c, Faults: full.Faults[:5]}
	ps := logic.RandomPatterns(c.NumInputs(), 190, prng.New(11))
	for _, opts := range []Options{{Mode: NoDrop}, {Mode: Drop}, {Mode: NDetect, N: 2}} {
		seq := Run(fl, ps, opts)
		par := RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: 64})
		requireEqualResults(t, opts.Mode.String()+"/workers>faults", seq, par)
	}
}

// TestRunParallelStopAtCoverage checks the early-exit path truncates
// at the same block as the sequential run.
func TestRunParallelStopAtCoverage(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "ps", Inputs: 10, Gates: 150, Seed: 5})
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 512, prng.New(5))
	opts := Options{Mode: Drop, StopAtCoverage: 0.5}
	seq := Run(fl, ps, opts)
	for _, workers := range []int{2, 7} {
		par := RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: workers})
		requireEqualResults(t, "stop-at-coverage/workers="+strconv.Itoa(workers), seq, par)
	}
}

// TestRunParallelWithGood checks that supplying precomputed good
// values (the registry cache path) changes nothing about the result.
func TestRunParallelWithGood(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "pg", Inputs: 10, Gates: 120, Seed: 9})
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 200, prng.New(9))
	good := ComputeGoodCompiled(circuit.Compile(c), ps)
	for _, opts := range []Options{{Mode: NoDrop}, {Mode: Drop}, {Mode: NDetect, N: 2}} {
		seq := Run(fl, ps, opts)
		par := RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: 4, Good: good})
		requireEqualResults(t, opts.Mode.String()+"/good-cache", seq, par)
	}
}

const muxBench = `
INPUT(a)
INPUT(b)
INPUT(s)
OUTPUT(y)
ns = NOT(s)
t0 = AND(a, ns)
t1 = AND(b, s)
y = OR(t0, t1)
`

const parityBench = `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(x4)
x1 = XOR(a, b)
x2 = XOR(x1, c)
x3 = XOR(x2, d)
x4 = XOR(x3, e)
`

// goodBit returns gate g's good value under pattern u.
func goodBit(good *Good, g, u int) uint8 {
	return uint8(good.blocks[u/logic.WordBits][g]>>uint(u%logic.WordBits)) & 1
}

// TestComputeGoodMatchesNaive checks every gate's value in every
// stored block, the partial tail block included, against the naive
// per-vector evaluator.
func TestComputeGoodMatchesNaive(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		parse(t, "mux", muxBench),
		parse(t, "parity", parityBench),
		gen.Generate(gen.Config{Name: "cg", Inputs: 10, Gates: 150, Seed: 6}),
	} {
		ps := logic.RandomPatterns(c.NumInputs(), 200, prng.New(11)) // 3 blocks + an 8-pattern tail
		good := ComputeGoodCompiled(circuit.Compile(c), ps)
		for u := 0; u < ps.Len(); u++ {
			for gi, want := range naiveValues(c, fault.Fault{}, ps.Get(u), false) {
				if got := goodBit(good, gi, u); got != want {
					t.Fatalf("%s vector %d gate %s: got %d, want %d", c.Name, u, c.Gates[gi].Name, got, want)
				}
			}
		}
	}
}

// TestComputeGoodMuxTruthTable checks the mux output over all eight
// input combinations.
func TestComputeGoodMuxTruthTable(t *testing.T) {
	c := parse(t, "mux", muxBench)
	ps := logic.ExhaustivePatterns(3)
	good := ComputeGoodCompiled(circuit.Compile(c), ps)
	for u := 0; u < ps.Len(); u++ {
		v := ps.Get(u)
		want := v[0] // s ? b : a
		if v[2] == 1 {
			want = v[1]
		}
		if got := goodBit(good, c.Outputs[0], u); got != want {
			t.Fatalf("mux(%d,%d,%d) = %d, want %d", v[0], v[1], v[2], got, want)
		}
	}
}

// TestComputeGoodXorTreeParity checks the XOR tree computes the parity
// of all 32 five-bit inputs.
func TestComputeGoodXorTreeParity(t *testing.T) {
	c := parse(t, "parity", parityBench)
	ps := logic.ExhaustivePatterns(5)
	good := ComputeGoodCompiled(circuit.Compile(c), ps)
	for u := 0; u < ps.Len(); u++ {
		v := ps.Get(u)
		parity := uint8(0)
		for _, bit := range v {
			parity ^= bit
		}
		if got := goodBit(good, c.Outputs[0], u); got != parity {
			t.Fatalf("parity(%v) = %d, want %d", v, got, parity)
		}
	}
}

func TestComputeGoodPanicsOnWidthMismatch(t *testing.T) {
	cc := circuit.Compile(gen.Generate(gen.Config{Name: "p", Inputs: 4, Gates: 10, Seed: 1}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ComputeGoodCompiled(cc, logic.NewPatternSet(2))
}

// TestRunParallelProgress checks the per-block progress stream: one
// callback per simulated block, monotone fields, final state matching
// the result.
func TestRunParallelProgress(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "pp", Inputs: 10, Gates: 120, Seed: 3})
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 300, prng.New(3))
	var events []Progress
	res := RunParallelWith(fl, ps, ParallelOptions{
		Options:  Options{Mode: NoDrop},
		Workers:  4,
		Progress: func(p Progress) { events = append(events, p) },
	})
	if len(events) != ps.Blocks() {
		t.Fatalf("got %d progress events, want %d", len(events), ps.Blocks())
	}
	for i, ev := range events {
		if ev.Block != i || ev.Blocks != ps.Blocks() {
			t.Fatalf("event %d: Block=%d Blocks=%d", i, ev.Block, ev.Blocks)
		}
		if i > 0 && ev.Detected < events[i-1].Detected {
			t.Fatalf("Detected not monotone at block %d", i)
		}
	}
	last := events[len(events)-1]
	if last.VectorsUsed != res.VectorsUsed || last.Detected != res.DetectedCount() {
		t.Fatalf("final progress %+v does not match result (used %d, detected %d)",
			last, res.VectorsUsed, res.DetectedCount())
	}
}

func TestRunParallelPanicsOnWidthMismatch(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "p", Inputs: 4, Gates: 10, Seed: 1})
	fl := fault.CollapsedUniverse(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunParallelWith(fl, logic.NewPatternSet(2), ParallelOptions{Workers: 2})
}

func TestRunParallelPanicsOnForeignGood(t *testing.T) {
	c := gen.Generate(gen.Config{Name: "p", Inputs: 4, Gates: 10, Seed: 1})
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(4, 64, prng.New(1))
	other := logic.RandomPatterns(4, 128, prng.New(2))
	good := ComputeGoodCompiled(circuit.Compile(c), other)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunParallelWith(fl, ps, ParallelOptions{Workers: 2, Good: good})
}

func BenchmarkRunParallel(b *testing.B) {
	c := gen.Generate(gen.Config{Name: "p", Inputs: 32, Gates: 600, Seed: 1})
	fl := fault.CollapsedUniverse(c)
	ps := logic.RandomPatterns(c.NumInputs(), 1024, prng.New(1))
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Run(fl, ps, Options{Mode: NoDrop})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunParallelWith(fl, ps, ParallelOptions{})
		}
	})
	good := ComputeGoodCompiled(circuit.Compile(c), ps)
	b.Run("parallel-cached-good", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunParallelWith(fl, ps, ParallelOptions{Good: good})
		}
	})

	// The largest bundled suite circuits at a fixed 8 workers.
	for _, name := range []string{"irs5378", "irs13207"} {
		sc, ok := gen.SuiteByName(name)
		if !ok {
			b.Fatalf("suite circuit %s missing", name)
		}
		big := sc.Build()
		bigFl := fault.CollapsedUniverse(big)
		bigPs := logic.RandomPatterns(big.NumInputs(), 1024, prng.New(sc.Seed))
		for _, mode := range []Options{{Mode: NoDrop}, {Mode: Drop}} {
			opts := mode
			b.Run(name+"/"+opts.Mode.String()+"/w8", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					RunParallelWith(bigFl, bigPs, ParallelOptions{Options: opts, Workers: 8})
				}
			})
		}
	}
}
