package service

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok { // touch a: b is now oldest
		t.Fatal("a missing")
	}
	c.put("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestLRUPutOverwrites(t *testing.T) {
	c := newLRU[int](2)
	c.put("a", 1)
	c.put("a", 2)
	if v, _ := c.get("a"); v != 2 {
		t.Fatalf("a = %d, want 2", v)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

func TestCircuitKey(t *testing.T) {
	if _, err := CircuitKey(JobSpec{}); err == nil {
		t.Fatal("empty spec must be rejected")
	}
	if _, err := CircuitKey(JobSpec{Circuit: "c17", Bench: "x"}); err == nil {
		t.Fatal("ambiguous spec must be rejected")
	}
	k1, err := CircuitKey(JobSpec{Circuit: "c17"})
	if err != nil || k1 != "n:c17" {
		t.Fatalf("named key = %q, %v", k1, err)
	}
	kb1, _ := CircuitKey(JobSpec{Bench: benchdata.C17})
	kb2, _ := CircuitKey(JobSpec{Bench: benchdata.C17})
	if kb1 != kb2 {
		t.Fatal("equal bench text must produce equal keys")
	}
	kb3, _ := CircuitKey(JobSpec{Bench: benchdata.C17 + "\n"})
	if kb3 == kb1 {
		t.Fatal("different bench text must produce different keys")
	}
}

func TestRegistryCircuitCaching(t *testing.T) {
	r := NewRegistry(4, 4)
	spec := JobSpec{Circuit: "c17"}
	e1, err := r.CircuitFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.CircuitFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("repeat resolution did not hit the cache")
	}
	st := r.Stats()
	if st.CircuitHits != 1 || st.CircuitMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if e1.Faults.Len() != 22 {
		t.Fatalf("c17 collapsed faults = %d, want 22", e1.Faults.Len())
	}
	if e1.Fingerprint == 0 {
		t.Fatal("fingerprint not populated")
	}
}

func TestRegistryCircuitEviction(t *testing.T) {
	r := NewRegistry(1, 1)
	if _, err := r.CircuitFor(JobSpec{Circuit: "c17"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CircuitFor(JobSpec{Circuit: "lion"}); err != nil {
		t.Fatal(err)
	}
	// c17 was evicted: resolving it again must miss.
	if _, err := r.CircuitFor(JobSpec{Circuit: "c17"}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.CircuitMisses != 3 || st.CircuitHits != 0 {
		t.Fatalf("stats = %+v, want 3 misses / 0 hits", st)
	}
	if st.Circuits != 1 {
		t.Fatalf("entries = %d, want 1", st.Circuits)
	}
}

func TestRegistryGoodCaching(t *testing.T) {
	r := NewRegistry(4, 4)
	e, err := r.CircuitFor(JobSpec{Circuit: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	ps := logic.RandomPatterns(e.Circuit.NumInputs(), 128, prng.New(3))
	g1 := r.Good(e, "r:128:3", ps)
	g2 := r.Good(e, "r:128:3", ps)
	if g1 != g2 {
		t.Fatal("repeat good lookup did not hit the cache")
	}
	st := r.Stats()
	if st.GoodHits != 1 || st.GoodMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestRegistryEvictionDuringBuild races LRU eviction against an
// in-flight single-flight build: a waiter that joined the slot before
// the eviction must share the one build (no double-build), both
// callers must get a fully usable entry (no use-after-evict — the
// entry is self-contained, eviction only forgets the cache key), and a
// later lookup of the evicted key rebuilds cleanly.
func TestRegistryEvictionDuringBuild(t *testing.T) {
	r := NewRegistry(1, 1) // capacity 1: any other key evicts the slot
	var builds atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	build := func() (*circuit.Circuit, error) {
		if builds.Add(1) == 1 {
			close(started)
		}
		<-release
		return circuit.ParseBench("c17", strings.NewReader(benchdata.C17))
	}

	type outcome struct {
		entry *CircuitEntry
		err   error
	}
	results := make(chan outcome, 2)
	lookup := func() {
		e, err := r.Circuit("k", build)
		results <- outcome{e, err}
	}
	go lookup()
	<-started // the first builder is inside build(), blocked on release

	// Second caller: must join the in-flight slot (a cache hit on the
	// same sync.Once), observable as CircuitHits == 1.
	go lookup()
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().CircuitHits < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second lookup never hit the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Evict the in-flight slot while both callers wait on its build.
	if _, err := r.CircuitFor(JobSpec{Circuit: "lion"}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Circuits != 1 {
		t.Fatalf("registry holds %d circuits, want 1 (the evictor)", st.Circuits)
	}

	close(release)
	o1, o2 := <-results, <-results
	if o1.err != nil || o2.err != nil {
		t.Fatalf("builds failed: %v, %v", o1.err, o2.err)
	}
	if o1.entry != o2.entry {
		t.Fatal("waiter did not share the single-flight build (double build or divergent entries)")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for two concurrent lookups, want 1", n)
	}
	// The evicted entry is still fully usable: it owns its circuit and
	// fault list, eviction only dropped the cache key.
	if o1.entry.Circuit == nil || o1.entry.Faults.Len() != 22 || o1.entry.Fingerprint == 0 {
		t.Fatalf("entry unusable after eviction: %+v", o1.entry)
	}

	// A fresh lookup of the evicted key is a miss and rebuilds (the
	// gate is already open, so the second build completes immediately).
	e3, err := r.Circuit("k", build)
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Fatalf("rebuild after eviction ran build %d times total, want 2", builds.Load())
	}
	if e3 == o1.entry {
		t.Fatal("rebuild returned the evicted slot's entry pointer; expected a fresh slot")
	}
	if e3.Fingerprint != o1.entry.Fingerprint {
		t.Fatal("rebuild produced a divergent circuit")
	}
}

// TestRegistryCompiledCaching pins the compiled-form cache contract:
// repeat lookups share one immutable form, and because the key is the
// netlist fingerprint (not the request key), an inline submission of a
// named circuit's text shares the form compiled for the name.
func TestRegistryCompiledCaching(t *testing.T) {
	r := NewRegistry(4, 4)
	e, err := r.CircuitFor(JobSpec{Circuit: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	cc1 := r.Compiled(e)
	cc2 := r.Compiled(e)
	if cc1 != cc2 {
		t.Fatal("repeat compiled lookup did not hit the cache")
	}
	if cc1.Fingerprint != e.Fingerprint {
		t.Fatal("compiled form carries the wrong fingerprint")
	}

	src, err := benchdata.Source("c17")
	if err != nil {
		t.Fatal(err)
	}
	// Name matters: the fingerprint covers the circuit name, so only a
	// same-named inline submission is the same netlist.
	e2, err := r.CircuitFor(JobSpec{Bench: src, Name: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	if e2 == e {
		t.Fatal("inline and named submissions must be distinct circuit entries")
	}
	if cc3 := r.Compiled(e2); cc3 != cc1 {
		t.Fatal("structurally identical netlists must share one compiled form")
	}

	st := r.Stats()
	if st.CompiledHits != 2 || st.CompiledMisses != 1 {
		t.Fatalf("stats = %+v, want 2 compiled hits / 1 miss", st)
	}
	if st.Compiled != 1 {
		t.Fatalf("resident compiled forms = %d, want 1", st.Compiled)
	}
}

func TestRegistryBadCircuit(t *testing.T) {
	r := NewRegistry(4, 4)
	if _, err := r.CircuitFor(JobSpec{Circuit: "no-such-circuit"}); err == nil {
		t.Fatal("unknown name must fail")
	}
	if _, err := r.CircuitFor(JobSpec{Bench: "this is not a netlist"}); err == nil {
		t.Fatal("bad bench text must fail")
	}
	// Failures must not poison the cache.
	if st := r.Stats(); st.Circuits != 0 {
		t.Fatalf("failed builds cached: %+v", st)
	}
}
