// Package fault implements the single stuck-at fault model on
// gate-level netlists: enumeration of the fault universe (one fault
// pair per circuit line), structural equivalence collapsing, and the
// bookkeeping types shared by the fault simulator, the ATPG and the
// ADI machinery.
//
// # Lines and fault sites
//
// A line is either a gate output stem or a fanout branch. A branch
// exists only where the driving gate has more than one fanout
// connection; a single-fanout connection is electrically the same line
// as the stem, so modelling it separately would double-count faults.
// A fault site is addressed as (gate, pin):
//
//   - pin == StemPin (-1): the stem, i.e. the output of gate;
//   - pin >= 0: the branch feeding input pin of gate (only present
//     when the driver has fanout > 1).
//
// This addressing gives the classic uncollapsed universe: for c17 it
// yields 34 faults on 17 lines, which structural equivalence
// collapsing reduces to the textbook 22.
package fault

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/eda-go/adifo/internal/circuit"
)

// StemPin is the pin value denoting a gate-output stem site.
const StemPin = -1

// Fault is a single stuck-at fault. SA is the stuck value (0 or 1).
type Fault struct {
	Gate int
	Pin  int
	SA   uint8
}

// String renders the fault in a compact human-readable form using the
// circuit's signal names, e.g. "n16 sa0" for a stem or "n22.in1 sa1"
// for a branch.
func (f Fault) String() string {
	return fmt.Sprintf("gate%d.pin%d sa%d", f.Gate, f.Pin, f.SA)
}

// Name renders the fault with signal names from c: "n16 sa0" for a
// stem, "n22.in1 sa1" for a branch.
func (f Fault) Name(c *circuit.Circuit) string {
	return string(f.AppendName(nil, c))
}

// AppendName appends f's Name to b.
func (f Fault) AppendName(b []byte, c *circuit.Circuit) []byte {
	b = append(b, c.Gates[f.Gate].Name...)
	if f.Pin != StemPin {
		b = strconv.AppendInt(append(b, ".in"...), int64(f.Pin), 10)
	}
	return strconv.AppendUint(append(b, " sa"...), uint64(f.SA), 10)
}

// List is an ordered set of faults over one circuit. The order of
// Faults is significant: fault indices are used as bitset positions by
// the simulator and as identities by the ordering heuristics.
type List struct {
	Circuit *circuit.Circuit
	Faults  []Fault
}

// Len returns the number of faults.
func (l *List) Len() int { return len(l.Faults) }

// Universe enumerates the full uncollapsed single stuck-at fault
// universe of c in a deterministic order: for each gate in id order,
// the stem sa0/sa1 pair, then for each input pin whose driver has
// fanout > 1 the branch sa0/sa1 pair.
func Universe(c *circuit.Circuit) *List {
	var faults []Fault
	for gi := range c.Gates {
		faults = append(faults,
			Fault{Gate: gi, Pin: StemPin, SA: 0},
			Fault{Gate: gi, Pin: StemPin, SA: 1})
	}
	for gi, g := range c.Gates {
		for pin, drv := range g.Fanin {
			if len(c.Fanout[drv]) > 1 {
				faults = append(faults,
					Fault{Gate: gi, Pin: pin, SA: 0},
					Fault{Gate: gi, Pin: pin, SA: 1})
			}
		}
	}
	return &List{Circuit: c, Faults: faults}
}

// lineFault resolves the fault object on the line feeding input pin of
// gate g: the branch site when the driver fans out, otherwise the
// driver's stem site.
func lineFault(c *circuit.Circuit, g, pin int, sa uint8) Fault {
	drv := c.Gates[g].Fanin[pin]
	if len(c.Fanout[drv]) > 1 {
		return Fault{Gate: g, Pin: pin, SA: sa}
	}
	return Fault{Gate: drv, Pin: StemPin, SA: sa}
}

// Collapse reduces the list to one representative per structural
// equivalence class, preserving the original relative order of the
// representatives. The classic gate-local equivalence rules are used:
//
//	AND : input sa0 ≡ output sa0      NAND: input sa0 ≡ output sa1
//	OR  : input sa1 ≡ output sa1      NOR : input sa1 ≡ output sa0
//	BUF : input saV ≡ output saV      NOT : input saV ≡ output sa(1-V)
//
// XOR/XNOR gates admit no structural equivalences. The returned map
// sends every fault of the original universe to the index of its
// representative in the collapsed list.
func Collapse(l *List) (*List, map[Fault]int) {
	c := l.Circuit
	idx := make(map[Fault]int, len(l.Faults))
	for i, f := range l.Faults {
		idx[f] = i
	}
	uf := newUnionFind(len(l.Faults))

	merge := func(a, b Fault) {
		ia, oka := idx[a]
		ib, okb := idx[b]
		if !oka || !okb {
			// Equivalence across a site that is not in the universe
			// cannot happen by construction; guard anyway so a future
			// universe filter cannot corrupt collapsing silently.
			panic(fmt.Sprintf("fault: merging unknown site %v or %v", a, b))
		}
		uf.union(ia, ib)
	}

	for gi := range c.Gates {
		g := &c.Gates[gi]
		out0 := Fault{Gate: gi, Pin: StemPin, SA: 0}
		out1 := Fault{Gate: gi, Pin: StemPin, SA: 1}
		switch g.Type {
		case circuit.Buf:
			merge(lineFault(c, gi, 0, 0), out0)
			merge(lineFault(c, gi, 0, 1), out1)
		case circuit.Not:
			merge(lineFault(c, gi, 0, 0), out1)
			merge(lineFault(c, gi, 0, 1), out0)
		case circuit.And:
			for pin := range g.Fanin {
				merge(lineFault(c, gi, pin, 0), out0)
			}
		case circuit.Nand:
			for pin := range g.Fanin {
				merge(lineFault(c, gi, pin, 0), out1)
			}
		case circuit.Or:
			for pin := range g.Fanin {
				merge(lineFault(c, gi, pin, 1), out1)
			}
		case circuit.Nor:
			for pin := range g.Fanin {
				merge(lineFault(c, gi, pin, 1), out0)
			}
		}
	}

	// Representative = lowest original index in each class, keeping
	// the collapsed list in universe order (deterministic).
	repOf := make(map[int]int) // class root -> representative index
	for i := range l.Faults {
		root := uf.find(i)
		if r, ok := repOf[root]; !ok || i < r {
			repOf[root] = i
		}
	}
	reps := make([]int, 0, len(repOf))
	for _, r := range repOf {
		reps = append(reps, r)
	}
	sort.Ints(reps)

	collapsed := &List{Circuit: c, Faults: make([]Fault, len(reps))}
	posOf := make(map[int]int, len(reps)) // universe index -> collapsed index
	for ci, r := range reps {
		collapsed.Faults[ci] = l.Faults[r]
		posOf[r] = ci
	}
	toRep := make(map[Fault]int, len(l.Faults))
	for i, f := range l.Faults {
		toRep[f] = posOf[repOf[uf.find(i)]]
	}
	return collapsed, toRep
}

// CollapsedUniverse is the common entry point: enumerate the universe
// of c and collapse it in one call.
func CollapsedUniverse(c *circuit.Circuit) *List {
	collapsed, _ := Collapse(Universe(c))
	return collapsed
}

// unionFind is a plain weighted quick-union with path halving.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
