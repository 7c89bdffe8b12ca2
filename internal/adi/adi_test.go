package adi

import (
	"slices"
	"strings"
	"testing"

	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/irr"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

const c17Bench = `
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

// detects reports whether v detects f, by a one-fault, one-vector
// fsim.Run.
func detects(c *circuit.Circuit, f fault.Fault, v logic.Vector) bool {
	ps := logic.NewPatternSet(c.NumInputs())
	ps.Append(v)
	fl := &fault.List{Circuit: c, Faults: []fault.Fault{f}}
	return fsim.Run(fl, ps, fsim.Options{Mode: fsim.NoDrop}).Detected(0)
}

func c17Index(t testing.TB) *Index {
	t.Helper()
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.CollapsedUniverse(c)
	u := logic.ExhaustivePatterns(c.NumInputs())
	return Compute(fl, u)
}

func TestADIAgainstIndependentRecomputation(t *testing.T) {
	ix := c17Index(t)
	c := ix.List.Circuit
	// Recompute D(f) and ndet(u) fault by fault, vector by vector,
	// with one-fault, one-vector simulations.
	nf, nu := ix.List.Len(), ix.U.Len()
	det := make([][]bool, nf)
	ndet := make([]int, nu)
	for fi := range det {
		det[fi] = make([]bool, nu)
		for u := 0; u < nu; u++ {
			if detects(c, ix.List.Faults[fi], ix.U.Get(u)) {
				det[fi][u] = true
				ndet[u]++
			}
		}
	}
	for u := 0; u < nu; u++ {
		if ix.Ndet[u] != ndet[u] {
			t.Fatalf("ndet(%d) = %d, reference %d", u, ix.Ndet[u], ndet[u])
		}
	}
	for fi := 0; fi < nf; fi++ {
		want := 0
		for u := 0; u < nu; u++ {
			if det[fi][u] && (want == 0 || ndet[u] < want) {
				want = ndet[u]
			}
		}
		if ix.ADI[fi] != want {
			t.Fatalf("ADI[%d] = %d, reference %d", fi, ix.ADI[fi], want)
		}
	}
}

func TestADIBasicInvariants(t *testing.T) {
	ix := c17Index(t)
	for fi, a := range ix.ADI {
		if ix.DetectedByU(fi) && a < 1 {
			t.Fatalf("detected fault %d has ADI %d < 1", fi, a)
		}
		if !ix.DetectedByU(fi) && a != 0 {
			t.Fatalf("undetected fault %d has ADI %d != 0", fi, a)
		}
	}
	mn, mx := ix.MinMax()
	if mn < 1 || mx < mn {
		t.Fatalf("MinMax = %d, %d", mn, mx)
	}
	if r := ix.Ratio(); r < 1 {
		t.Fatalf("Ratio = %v", r)
	}
}

func TestOrdersArePermutations(t *testing.T) {
	ix := c17Index(t)
	n := ix.List.Len()
	for _, kind := range AllOrders() {
		ord := ix.Order(kind)
		if len(ord) != n {
			t.Fatalf("%v: length %d, want %d", kind, len(ord), n)
		}
		seen := make([]bool, n)
		for _, fi := range ord {
			if fi < 0 || fi >= n || seen[fi] {
				t.Fatalf("%v is not a permutation: %v", kind, ord)
			}
			seen[fi] = true
		}
	}
}

func TestOrigIsIdentity(t *testing.T) {
	ix := c17Index(t)
	for i, fi := range ix.Order(Orig) {
		if fi != i {
			t.Fatal("orig order must be the identity")
		}
	}
}

func TestDecrMonotonicity(t *testing.T) {
	ix := c17Index(t)
	ord := ix.Order(Decr)
	for i := 1; i < len(ord); i++ {
		a, b := ix.ADI[ord[i-1]], ix.ADI[ord[i]]
		if a < b {
			t.Fatalf("Decr not non-increasing at %d: %d then %d", i, a, b)
		}
	}
	// Ties broken by fault index.
	for i := 1; i < len(ord); i++ {
		if ix.ADI[ord[i-1]] == ix.ADI[ord[i]] && ix.ADI[ord[i]] > 0 && ord[i-1] > ord[i] {
			t.Fatalf("Decr tie not broken by index at %d", i)
		}
	}
}

func TestIncr0Monotonicity(t *testing.T) {
	ix := c17Index(t)
	ord := ix.Order(Incr0)
	// Nonzero prefix increasing, zeros (if any) at the end.
	seenZero := false
	prev := 0
	for _, fi := range ord {
		a := ix.ADI[fi]
		if a == 0 {
			seenZero = true
			continue
		}
		if seenZero {
			t.Fatal("nonzero ADI after zero block in Incr0")
		}
		if a < prev {
			t.Fatalf("Incr0 not non-decreasing: %d after %d", a, prev)
		}
		prev = a
	}
}

func TestZeroBlockPlacement(t *testing.T) {
	// Use a random subset of vectors so that some faults stay
	// undetected (ADI = 0).
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.CollapsedUniverse(c)
	u := logic.RandomPatterns(c.NumInputs(), 3, prng.New(2))
	ix := Compute(fl, u)

	zeros := 0
	for fi := range ix.ADI {
		if !ix.DetectedByU(fi) {
			zeros++
		}
	}
	if zeros == 0 {
		t.Skip("seed produced full coverage; zero-block test not applicable")
	}
	for _, kind := range []OrderKind{Decr, Dynm, Incr0} {
		ord := ix.Order(kind)
		for _, fi := range ord[len(ord)-zeros:] {
			if ix.DetectedByU(fi) {
				t.Fatalf("%v: zero-ADI block not at the end", kind)
			}
		}
	}
	for _, kind := range []OrderKind{Decr0, Dynm0} {
		ord := ix.Order(kind)
		for _, fi := range ord[:zeros] {
			if ix.DetectedByU(fi) {
				t.Fatalf("%v: zero-ADI block not at the beginning", kind)
			}
		}
	}
}

// naiveDynamicOrder is the O(n^2 |U|) reference implementation of the
// paper's dynamic ordering process.
func naiveDynamicOrder(ix *Index, faults []int) []int {
	ndet := append([]int(nil), ix.Ndet...)
	placed := make(map[int]bool)
	var out []int
	for len(out) < len(faults) {
		best, bestADI := -1, -1
		for _, fi := range faults {
			if placed[fi] {
				continue
			}
			cur := 0
			ix.Det[fi].ForEach(func(u int) {
				if cur == 0 || ndet[u] < cur {
					cur = ndet[u]
				}
			})
			if cur > bestADI || (cur == bestADI && best >= 0 && fi < best) {
				best, bestADI = fi, cur
			}
		}
		out = append(out, best)
		placed[best] = true
		ix.Det[best].ForEach(func(u int) { ndet[u]-- })
	}
	return out
}

// diffNaive fails t unless dynamicOrder places faults exactly as the
// naive reference does.
func diffNaive(t *testing.T, ix *Index, faults []int) {
	t.Helper()
	want := naiveDynamicOrder(ix, faults)
	got := ix.dynamicOrder(faults)
	if !slices.Equal(got, want) {
		t.Fatalf("dynamic order of %d faults differs from the naive reference\n got: %v\nwant: %v", len(faults), got, want)
	}
}

// suiteFaults returns the collapsed faults of the irredundant version
// of a paper-suite member.
func suiteFaults(tb testing.TB, name string) *fault.List {
	tb.Helper()
	sc, ok := gen.SuiteByName(name)
	if !ok {
		tb.Fatalf("no suite member %s", name)
	}
	c, _, err := irr.Make(sc.Build(), irr.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return fault.CollapsedUniverse(c)
}

// suiteIndex prepares a paper-suite member the way the experiments
// do, with U cut from 10,000 random vectors where drop-mode simulation
// reaches 90 % coverage.
func suiteIndex(tb testing.TB, name string) *Index {
	tb.Helper()
	fl := suiteFaults(tb, name)
	cand := logic.RandomPatterns(fl.Circuit.NumInputs(), 10000, prng.New(0xADF0))
	sizing := fsim.Run(fl, cand, fsim.Options{Mode: fsim.Drop, StopAtCoverage: 0.90})
	return Compute(fl, cand.Slice(sizing.VectorsUsed))
}

type namedIndex struct {
	name      string
	ix        *Index
	multiWord bool // more than 128 detected faults and more than 64 vectors
}

// referenceIndices are the indices the dynamic order is diffed against
// the naive reference on: tie-heavy exhaustive sets on c17 and lion,
// and sets spanning several words on both the fault and the vector
// axis.
func referenceIndices(t *testing.T) []namedIndex {
	t.Helper()
	lion := benchdata.MustLoad("lion")
	g := fault.CollapsedUniverse(gen.Generate(gen.Config{Name: "w", Inputs: 20, Gates: 250, Seed: 3}))
	irs := suiteFaults(t, "irs208")
	cases := []namedIndex{
		{name: "c17/exhaustive", ix: c17Index(t)},
		{name: "lion/exhaustive", ix: Compute(fault.CollapsedUniverse(lion), logic.ExhaustivePatterns(lion.NumInputs()))},
		{name: "gen250/200", ix: Compute(g, logic.RandomPatterns(g.Circuit.NumInputs(), 200, prng.New(4))), multiWord: true},
		{name: "irs208/300", ix: Compute(irs, logic.RandomPatterns(irs.Circuit.NumInputs(), 300, prng.New(5))), multiWord: true},
	}
	for _, tc := range cases {
		if tc.multiWord && (tc.ix.NumDetected() <= 2*logic.WordBits || tc.ix.U.Len() <= logic.WordBits) {
			t.Fatalf("%s: %d detected faults, %d vectors: not multi-word on both axes",
				tc.name, tc.ix.NumDetected(), tc.ix.U.Len())
		}
	}
	return cases
}

func TestDynamicOrderMatchesNaive(t *testing.T) {
	for _, tc := range referenceIndices(t) {
		t.Run(tc.name, func(t *testing.T) {
			nz, z := tc.ix.split()
			diffNaive(t, tc.ix, nz)
			// F_0dynm runs the same dynamic process after the zero block.
			if dyn, dyn0 := tc.ix.Order(Dynm), tc.ix.Order(Dynm0); !slices.Equal(dyn[:len(nz)], dyn0[len(z):]) {
				t.Fatalf("head of dynm differs from the tail of 0dynm")
			}
		})
	}
}

func TestDynamicOrderMatchesNaiveRandomSubsets(t *testing.T) {
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.CollapsedUniverse(c)
	for seed := uint64(1); seed <= 5; seed++ {
		u := logic.RandomPatterns(c.NumInputs(), 8, prng.New(seed))
		ix := Compute(fl, u)
		nz, _ := ix.split()
		diffNaive(t, ix, nz)
	}
	// Strict subsets of the detected faults (the first one is always
	// left out): ndet still counts the faults left out.
	src := prng.New(9)
	for _, tc := range referenceIndices(t) {
		nz, _ := tc.ix.split()
		var sub []int
		for _, fi := range nz[1:] {
			if src.Bool(0.6) {
				sub = append(sub, fi)
			}
		}
		t.Run(tc.name, func(t *testing.T) { diffNaive(t, tc.ix, sub) })
	}
}

func TestDynamicFirstPickIsGlobalMax(t *testing.T) {
	ix := c17Index(t)
	ord := ix.Order(Dynm)
	first := ord[0]
	for fi, a := range ix.ADI {
		if a > ix.ADI[first] {
			t.Fatalf("fault %d has higher static ADI than the first dynamic pick", fi)
		}
	}
}

func TestFromResultRequiresNoDrop(t *testing.T) {
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.CollapsedUniverse(c)
	u := logic.ExhaustivePatterns(c.NumInputs())
	res := fsim.Run(fl, u, fsim.Options{Mode: fsim.Drop})
	defer func() {
		if recover() == nil {
			t.Fatal("FromResult on Drop-mode result did not panic")
		}
	}()
	FromResult(res, u)
}

func TestOrderKindStrings(t *testing.T) {
	want := map[OrderKind]string{
		Orig: "orig", Incr0: "incr0", Decr: "decr",
		Decr0: "0decr", Dynm: "dynm", Dynm0: "0dynm",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if OrderKind(42).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func TestParseOrder(t *testing.T) {
	cases := map[string]OrderKind{
		"orig": Orig, "incr0": Incr0, "decr": Decr,
		"0decr": Decr0, "decr0": Decr0,
		"dynm": Dynm, "0dynm": Dynm0, "DYNM0": Dynm0,
	}
	for name, want := range cases {
		got, err := ParseOrder(name)
		if err != nil || got != want {
			t.Errorf("ParseOrder(%q) = %v, %v", name, got, err)
		}
	}
	for _, k := range AllOrders() {
		if got, err := ParseOrder(k.String()); err != nil || got != k {
			t.Errorf("ParseOrder(%v.String()) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseOrder("bogus"); err == nil || !strings.Contains(err.Error(), "unknown order") {
		t.Fatalf("bogus order accepted: %v", err)
	}
}

func TestNumDetected(t *testing.T) {
	ix := c17Index(t)
	// Exhaustive patterns detect every detectable fault of c17 — all
	// 22 collapsed faults are detectable.
	if ix.NumDetected() != 22 {
		t.Fatalf("NumDetected = %d, want 22", ix.NumDetected())
	}
}

func BenchmarkDynamicOrderC17(b *testing.B) {
	ix := c17Index(b)
	nz, _ := ix.split()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.dynamicOrder(nz)
	}
}

// BenchmarkDynamicOrder orders the largest suite member the paper
// tables run, irs641, with U sized as the experiments size it.
func BenchmarkDynamicOrder(b *testing.B) {
	ix := suiteIndex(b, "irs641")
	nz, _ := ix.split()
	for b.Loop() {
		ix.dynamicOrder(nz)
	}
}

func TestComputeNDetectInvariants(t *testing.T) {
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	fl := fault.CollapsedUniverse(c)
	u := logic.ExhaustivePatterns(c.NumInputs())
	full := Compute(fl, u)
	const n = 3
	nd := ComputeNDetect(fl, u, n)

	for fi := range fl.Faults {
		if nd.Det[fi].Count() > n {
			t.Fatalf("fault %d: |D_ndetect| = %d > n", fi, nd.Det[fi].Count())
		}
		// D_ndetect(f) ⊆ D_full(f).
		nd.Det[fi].ForEach(func(uIdx int) {
			if !full.Det[fi].Test(uIdx) {
				t.Fatalf("fault %d: vector %d in truncated set but not in full set", fi, uIdx)
			}
		})
		if full.DetectedByU(fi) != nd.DetectedByU(fi) {
			t.Fatalf("fault %d: detection status differs", fi)
		}
		if nd.DetectedByU(fi) && nd.ADI[fi] < 1 {
			t.Fatalf("fault %d: n-detect ADI %d < 1", fi, nd.ADI[fi])
		}
	}
	for uIdx := range nd.Ndet {
		if nd.Ndet[uIdx] > full.Ndet[uIdx] {
			t.Fatalf("ndet_ndetect(%d) = %d exceeds full %d", uIdx, nd.Ndet[uIdx], full.Ndet[uIdx])
		}
	}
	// All six orders still work on the estimated index.
	for _, kind := range AllOrders() {
		ord := nd.Order(kind)
		if len(ord) != fl.Len() {
			t.Fatalf("%v order truncated", kind)
		}
	}
}
