package circuit

import (
	"fmt"
	"sort"
)

// Circuit is an immutable (after Freeze) combinational netlist. Build
// one with a Builder or by parsing a .bench description, then treat it
// as read-only: the simulators share Circuit values freely across
// goroutines.
type Circuit struct {
	Name string

	// Gates indexed by gate id. Gates[i].Fanin holds gate ids.
	Gates []Gate

	// Inputs lists the primary-input gate ids (including pseudo-PIs
	// from scan conversion) in declaration order.
	Inputs []int

	// Outputs lists the observed gate ids (primary outputs plus
	// pseudo-POs from scan conversion) in declaration order. An
	// output entry is a gate id whose value is observed; a gate may
	// be observed and still drive other gates.
	Outputs []int

	// Derived structure, populated by Freeze.

	// Fanout[i] lists, for every gate j that has gate i as a fanin,
	// one entry (j, pin) per connection.
	Fanout [][]Conn

	// Level[i] is the logic depth of gate i: 0 for PIs, otherwise
	// 1 + max(level of fanins).
	Level []int

	// Topo is a topological order of all gate ids (PIs first,
	// non-decreasing level).
	Topo []int

	// MaxLevel is the largest entry of Level.
	MaxLevel int

	// isOutput[i] reports whether gate i is observed.
	isOutput []bool

	byName map[string]int
}

// Conn identifies one fanout connection: input pin Pin of gate Gate.
type Conn struct {
	Gate int
	Pin  int
}

// NumGates returns the number of gates including PI pseudo-gates.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.Inputs) }

// NumOutputs returns the number of observed outputs.
func (c *Circuit) NumOutputs() int { return len(c.Outputs) }

// IsOutput reports whether gate g is observed (a PO or scan pseudo-PO).
func (c *Circuit) IsOutput(g int) bool { return c.isOutput[g] }

// GateByName returns the gate id for a signal name.
func (c *Circuit) GateByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// Builder incrementally constructs a Circuit. It is append-only; call
// Freeze once at the end to validate and derive structure.
type Builder struct {
	c    Circuit
	errs []error
}

// NewBuilder returns a Builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{c: Circuit{Name: name, byName: map[string]int{}}}
}

// AddInput declares a primary input and returns its gate id.
func (b *Builder) AddInput(name string) int {
	id := b.addGate(name, PI, nil)
	b.c.Inputs = append(b.c.Inputs, id)
	return id
}

// AddGate declares a logic gate and returns its gate id. fanin holds
// previously declared gate ids in pin order.
func (b *Builder) AddGate(name string, t GateType, fanin ...int) int {
	if t == PI {
		b.errs = append(b.errs, fmt.Errorf("gate %q: use AddInput for primary inputs", name))
		return b.addGate(name, t, nil)
	}
	return b.addGate(name, t, fanin)
}

// MarkOutput marks a previously declared gate as observed.
func (b *Builder) MarkOutput(id int) {
	if id < 0 || id >= len(b.c.Gates) {
		b.errs = append(b.errs, fmt.Errorf("MarkOutput: gate id %d out of range", id))
		return
	}
	b.c.Outputs = append(b.c.Outputs, id)
}

func (b *Builder) addGate(name string, t GateType, fanin []int) int {
	if _, dup := b.c.byName[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate signal name %q", name))
	}
	id := len(b.c.Gates)
	b.c.Gates = append(b.c.Gates, Gate{Name: name, Type: t, Fanin: append([]int(nil), fanin...)})
	b.c.byName[name] = id
	return id
}

// Freeze validates the netlist, derives fanout lists, levels and a
// topological order, and returns the finished Circuit. The Builder
// must not be used afterwards.
func (b *Builder) Freeze() (*Circuit, error) {
	c := &b.c
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(c.Inputs) == 0 {
		return nil, fmt.Errorf("circuit %q has no primary inputs", c.Name)
	}
	if len(c.Outputs) == 0 {
		return nil, fmt.Errorf("circuit %q has no outputs", c.Name)
	}
	for i, g := range c.Gates {
		if min := g.Type.MinFanin(); len(g.Fanin) < min {
			return nil, fmt.Errorf("gate %q (%v) has %d fanins, needs at least %d", g.Name, g.Type, len(g.Fanin), min)
		}
		if max := g.Type.MaxFanin(); max > 0 && len(g.Fanin) > max {
			return nil, fmt.Errorf("gate %q (%v) has %d fanins, allows at most %d", g.Name, g.Type, len(g.Fanin), max)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.Gates) {
				return nil, fmt.Errorf("gate %q references undefined fanin id %d", g.Name, f)
			}
			if f == i {
				return nil, fmt.Errorf("gate %q feeds itself", g.Name)
			}
		}
	}
	if err := c.derive(); err != nil {
		return nil, err
	}
	return c, nil
}

// derive computes fanout lists, levels and the topological order. It
// returns an error when the netlist contains a combinational cycle.
func (c *Circuit) derive() error {
	n := len(c.Gates)
	c.Fanout = make([][]Conn, n)
	indeg := make([]int, n)
	for gi, g := range c.Gates {
		indeg[gi] = len(g.Fanin)
		for pin, f := range g.Fanin {
			c.Fanout[f] = append(c.Fanout[f], Conn{Gate: gi, Pin: pin})
		}
	}

	// Kahn's algorithm; process lowest id first for a deterministic
	// order.
	c.Level = make([]int, n)
	c.Topo = make([]int, 0, n)
	ready := make([]int, 0, n)
	for gi, d := range indeg {
		if d == 0 {
			ready = append(ready, gi)
		}
	}
	sort.Ints(ready)
	for len(ready) > 0 {
		gi := ready[0]
		ready = ready[1:]
		c.Topo = append(c.Topo, gi)
		for _, fo := range c.Fanout[gi] {
			if lvl := c.Level[gi] + 1; lvl > c.Level[fo.Gate] {
				c.Level[fo.Gate] = lvl
			}
			indeg[fo.Gate]--
			if indeg[fo.Gate] == 0 {
				ready = append(ready, fo.Gate)
			}
		}
	}
	if len(c.Topo) != n {
		return fmt.Errorf("circuit %q contains a combinational cycle", c.Name)
	}
	c.MaxLevel = 0
	for _, l := range c.Level {
		if l > c.MaxLevel {
			c.MaxLevel = l
		}
	}
	c.isOutput = make([]bool, n)
	for _, id := range c.Outputs {
		c.isOutput[id] = true
	}
	return nil
}

// Stats summarizes the structural properties of a circuit; the CLIs
// print it and the generator's tuning tests assert on it.
type Stats struct {
	Gates      int // logic gates, excluding PI pseudo-gates
	Inputs     int
	Outputs    int
	Levels     int // MaxLevel
	Lines      int // fault sites before collapsing: stems + branch pins
	MaxFanin   int
	MaxFanout  int
	FanoutStem int // gates with fanout > 1
}

// ComputeStats derives Stats from the frozen circuit.
func (c *Circuit) ComputeStats() Stats {
	s := Stats{
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Levels:  c.MaxLevel,
	}
	for gi, g := range c.Gates {
		if g.Type != PI {
			s.Gates++
		}
		if len(g.Fanin) > s.MaxFanin {
			s.MaxFanin = len(g.Fanin)
		}
		fo := len(c.Fanout[gi])
		if fo > s.MaxFanout {
			s.MaxFanout = fo
		}
		if fo > 1 {
			s.FanoutStem++
			s.Lines += fo // one line per branch
		}
		s.Lines++ // the stem itself
	}
	return s
}

// Controllability holds SCOAP-style combinational controllability
// measures: CC0[i]/CC1[i] estimate the effort to set gate i to 0/1.
// PODEM's backtrace uses them to pick easy/hard inputs.
type Controllability struct {
	CC0, CC1 []int
}

// ComputeControllability computes SCOAP combinational controllability
// in one topological pass.
func (c *Circuit) ComputeControllability() *Controllability {
	n := len(c.Gates)
	cc := &Controllability{CC0: make([]int, n), CC1: make([]int, n)}
	const inf = 1 << 30
	for _, gi := range c.Topo {
		g := &c.Gates[gi]
		switch g.Type {
		case PI:
			cc.CC0[gi], cc.CC1[gi] = 1, 1
		case Buf:
			cc.CC0[gi] = cc.CC0[g.Fanin[0]] + 1
			cc.CC1[gi] = cc.CC1[g.Fanin[0]] + 1
		case Not:
			cc.CC0[gi] = cc.CC1[g.Fanin[0]] + 1
			cc.CC1[gi] = cc.CC0[g.Fanin[0]] + 1
		case And, Nand:
			sum1, min0 := 0, inf
			for _, f := range g.Fanin {
				sum1 += cc.CC1[f]
				if cc.CC0[f] < min0 {
					min0 = cc.CC0[f]
				}
			}
			if g.Type == And {
				cc.CC1[gi], cc.CC0[gi] = sum1+1, min0+1
			} else {
				cc.CC0[gi], cc.CC1[gi] = sum1+1, min0+1
			}
		case Or, Nor:
			sum0, min1 := 0, inf
			for _, f := range g.Fanin {
				sum0 += cc.CC0[f]
				if cc.CC1[f] < min1 {
					min1 = cc.CC1[f]
				}
			}
			if g.Type == Or {
				cc.CC0[gi], cc.CC1[gi] = sum0+1, min1+1
			} else {
				cc.CC1[gi], cc.CC0[gi] = sum0+1, min1+1
			}
		case Xor, Xnor:
			// For XOR trees the exact SCOAP recursion enumerates
			// parity assignments; the standard approximation below
			// (cheapest mixed assignment) is accurate enough for
			// backtrace ordering.
			c0, c1 := 0, inf
			for _, f := range g.Fanin {
				c0 += min(cc.CC0[f], cc.CC1[f])
				alt := c0 - min(cc.CC0[f], cc.CC1[f]) + max(cc.CC0[f], cc.CC1[f])
				if alt < c1 {
					c1 = alt
				}
			}
			if g.Type == Xor {
				cc.CC0[gi], cc.CC1[gi] = c0+1, c1+1
			} else {
				cc.CC1[gi], cc.CC0[gi] = c0+1, c1+1
			}
		}
	}
	return cc
}
