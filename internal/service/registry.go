package service

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/experiments"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/logic"
)

// CircuitEntry is everything the service derives from one netlist and
// shares, read-only, across all jobs that grade it: the levelized
// circuit and the collapsed fault list. Deriving it is the expensive
// part of a small grading request (parse + levelize + collapse), which
// is why repeat submissions must hit the cache instead.
type CircuitEntry struct {
	Key         string
	Fingerprint uint64
	Circuit     *circuit.Circuit
	Faults      *fault.List
}

// RegistryStats is the registry's cache counter snapshot, exposed via
// the service stats endpoint so clients (and tests) can verify that
// repeat submissions hit the cache.
type RegistryStats struct {
	CircuitHits   uint64 `json:"circuit_hits"`
	CircuitMisses uint64 `json:"circuit_misses"`
	GoodHits      uint64 `json:"good_hits"`
	GoodMisses    uint64 `json:"good_misses"`
	// CircuitEvictions and GoodEvictions count entries pushed out by
	// the LRU — a rising rate means the cache capacity is undersized
	// for the working set and rebuild cost is being paid repeatedly.
	CircuitEvictions uint64 `json:"circuit_evictions"`
	GoodEvictions    uint64 `json:"good_evictions"`
	// Compiled-form counters: the SoA simulation form derived from a
	// cached circuit (keyed by netlist fingerprint, so structurally
	// identical submissions under different keys share one form). A
	// miss costs one circuit.Compile; hits hand every grading job the
	// same immutable arrays.
	CompiledHits      uint64 `json:"compiled_hits"`
	CompiledMisses    uint64 `json:"compiled_misses"`
	CompiledEvictions uint64 `json:"compiled_evictions"`
	Circuits          int    `json:"circuits"`
	Goods             int    `json:"goods"`
	Compiled          int    `json:"compiled"`
}

// Registry caches parsed circuits (with their collapsed fault lists)
// and precomputed good-machine simulations under LRU eviction. Keys
// are deterministic functions of the request content — a name for
// named circuits, a content hash for inline netlists, and the pattern
// spec for good values — so equal requests always share one entry.
//
// The registry lock only guards the maps and counters; builds run
// outside it behind a per-entry sync.Once, so a slow parse or good
// simulation never blocks unrelated lookups, while concurrent misses
// on one key still do the work exactly once (single-flight).
type Registry struct {
	mu       sync.Mutex
	circuits *lruCache[*circuitSlot]
	goods    *lruCache[*goodSlot]
	compiled *lruCache[*compiledSlot]
	stats    RegistryStats
}

// circuitSlot and goodSlot are the single-flight cells stored in the
// LRUs: the first goroutine to claim the slot builds, later ones wait
// on the Once.
type circuitSlot struct {
	once  sync.Once
	entry *CircuitEntry
	err   error
}

type goodSlot struct {
	once sync.Once
	g    *fsim.Good
}

type compiledSlot struct {
	once sync.Once
	cc   *circuit.Compiled
}

// NewRegistry returns a registry holding at most circuitCap circuit
// entries and goodCap good-machine simulations.
func NewRegistry(circuitCap, goodCap int) *Registry {
	return &Registry{
		circuits: newLRU[*circuitSlot](circuitCap),
		goods:    newLRU[*goodSlot](goodCap),
		// One compiled form per live circuit is the steady state, so
		// the compiled cache shares the circuit capacity.
		compiled: newLRU[*compiledSlot](circuitCap),
	}
}

// CircuitKey returns the cache key for a job's circuit request: the
// name for named circuits, a content hash for inline bench text.
// Hashing the raw text (rather than parsing and fingerprinting) keeps
// the cache-hit path free of parsing entirely.
func CircuitKey(spec JobSpec) (string, error) {
	switch {
	case spec.Circuit != "" && spec.Bench != "":
		return "", fmt.Errorf("request names a circuit and carries bench text; want exactly one")
	case spec.Circuit != "":
		return "n:" + spec.Circuit, nil
	case spec.Bench != "":
		h := fnv.New64a()
		h.Write([]byte(spec.Bench))
		return fmt.Sprintf("b:%016x", h.Sum64()), nil
	}
	return "", fmt.Errorf("request carries neither a circuit name nor bench text")
}

// Circuit returns the cached entry for key, building it on a miss
// (parse, levelize, collapse — outside the lock, single-flight per
// key). Failed builds are not cached.
func (r *Registry) Circuit(key string, build func() (*circuit.Circuit, error)) (*CircuitEntry, error) {
	r.mu.Lock()
	slot, ok := r.circuits.get(key)
	if ok {
		r.stats.CircuitHits++
	} else {
		r.stats.CircuitMisses++
		slot = &circuitSlot{}
		if r.circuits.put(key, slot) {
			r.stats.CircuitEvictions++
		}
	}
	r.mu.Unlock()

	slot.once.Do(func() {
		c, err := build()
		if err != nil {
			slot.err = err
			return
		}
		slot.entry = &CircuitEntry{
			Key:         key,
			Fingerprint: c.Fingerprint(),
			Circuit:     c,
			Faults:      fault.CollapsedUniverse(c),
		}
	})
	if slot.err != nil {
		r.mu.Lock()
		r.circuits.delete(key)
		r.mu.Unlock()
		return nil, slot.err
	}
	return slot.entry, nil
}

// CircuitFor resolves a job's circuit through the cache: named
// circuits load embedded or synthetic netlists, inline text is parsed
// as .bench.
func (r *Registry) CircuitFor(spec JobSpec) (*CircuitEntry, error) {
	key, err := CircuitKey(spec)
	if err != nil {
		return nil, err
	}
	return r.Circuit(key, func() (*circuit.Circuit, error) {
		if spec.Circuit != "" {
			return experiments.LoadNamedCircuit(spec.Circuit)
		}
		name := spec.Name
		if name == "" {
			name = "submitted"
		}
		return circuit.ParseBench(name, strings.NewReader(spec.Bench))
	})
}

// Good returns the cached good-machine simulation for (entry,
// patternKey), computing it from ps on a miss (outside the lock,
// single-flight per key). patternKey must deterministically identify
// the content of ps.
func (r *Registry) Good(entry *CircuitEntry, patternKey string, ps *logic.PatternSet) *fsim.Good {
	key := entry.Key + "|" + patternKey
	r.mu.Lock()
	slot, ok := r.goods.get(key)
	if ok {
		r.stats.GoodHits++
	} else {
		r.stats.GoodMisses++
		slot = &goodSlot{}
		if r.goods.put(key, slot) {
			r.stats.GoodEvictions++
		}
	}
	r.mu.Unlock()

	slot.once.Do(func() { slot.g = fsim.ComputeGoodCompiled(r.Compiled(entry), ps) })
	return slot.g
}

// Compiled returns the cached SoA simulation form for entry's netlist,
// compiling it on a miss (outside the lock, single-flight per key).
// The key is the netlist fingerprint rather than the request key, so
// an inline submission of a named circuit's text shares the compiled
// form with jobs naming it — the simulator accepts any compiled form
// whose fingerprint matches the circuit it runs.
func (r *Registry) Compiled(entry *CircuitEntry) *circuit.Compiled {
	key := fmt.Sprintf("%016x", entry.Fingerprint)
	r.mu.Lock()
	slot, ok := r.compiled.get(key)
	if ok {
		r.stats.CompiledHits++
	} else {
		r.stats.CompiledMisses++
		slot = &compiledSlot{}
		if r.compiled.put(key, slot) {
			r.stats.CompiledEvictions++
		}
	}
	r.mu.Unlock()

	slot.once.Do(func() { slot.cc = circuit.Compile(entry.Circuit) })
	return slot.cc
}

// Stats returns a snapshot of the cache counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Circuits = r.circuits.len()
	s.Goods = r.goods.len()
	s.Compiled = r.compiled.len()
	return s
}
