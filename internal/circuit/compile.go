package circuit

// Compiled is the flat, structure-of-arrays form of a frozen Circuit
// that the simulators execute. Where Circuit stores one Gate struct
// per node (name, type, fanin slice), Compiled lays the same netlist
// out as parallel CSR arrays indexed by gate id, plus a levelized
// evaluation order and the fanout-free region tables, so the
// simulation inner loops touch nothing but dense int32/uint8 arrays:
// no per-gate pointer chasing, no interface values, and fanin/fanout
// walks that are contiguous in memory.
//
// Gate ids are unchanged from the source circuit — fault sites, value
// arrays and results stay indexable by the same integers — only the
// evaluation *order* is re-derived (level-major, ascending id within a
// level). A Compiled is immutable and safe to share across goroutines;
// one compiled form serves any number of concurrent simulations, which
// is why the service registry caches it per netlist fingerprint.
type Compiled struct {
	// Circuit is the source netlist the form was compiled from.
	Circuit *Circuit

	// Fingerprint is Circuit.Fingerprint(), captured at compile time so
	// consumers can cheaply verify a compiled form against a circuit
	// without rehashing.
	Fingerprint uint64

	// Type[g] is the gate type of gate g.
	Type []GateType

	// Fanin CSR: the fanin gate ids of gate g, in pin order, are
	// Fanin[FaninStart[g]:FaninStart[g+1]]. len(FaninStart) == n+1.
	FaninStart []int32
	Fanin      []int32

	// Fanout CSR: the gate ids fed by gate g (one entry per connection,
	// so a gate feeding two pins of one sink appears twice) are
	// Fanout[FanoutStart[g]:FanoutStart[g+1]].
	FanoutStart []int32
	Fanout      []int32

	// Level[g] is the logic depth of gate g (0 for PIs).
	Level []int32

	// Order lists every gate id in levelized topological order:
	// level-major, ascending id within a level. The gates of level l
	// are Order[LevelStart[l]:LevelStart[l+1]]; len(LevelStart) ==
	// MaxLevel+2. Level 0 is exactly the PIs, so a full evaluation pass
	// walks Order[LevelStart[1]:].
	Order      []int32
	LevelStart []int32

	// Output[g] reports whether gate g is observed (a PO or scan
	// pseudo-PO).
	Output []bool

	// Inputs and Outputs are the PI and observed gate ids in
	// declaration order (the same order as Circuit.Inputs/Outputs).
	Inputs  []int32
	Outputs []int32

	// Fanout-free regions. A stem is a gate with other than exactly one
	// fanout connection (connections, not sinks: a gate feeding two
	// pins of one sink is a stem) or an observed gate. Every other gate
	// has a single fanout path, and its region is the stem that path
	// reaches first. Root[g] is that stem (g itself for a stem);
	// Succ[g] is the single fanout gate of a non-stem g, -1 for a stem;
	// SuccSlot[g] is the absolute Fanin slot of Succ[g] that g drives,
	// -1 for a stem. The stem-region fault kernel traces each region's
	// faults to its stem along Succ.
	Root     []int32
	Succ     []int32
	SuccSlot []int32

	// MaxLevel is the largest entry of Level; MaxFanin the widest gate.
	MaxLevel int
	MaxFanin int
}

// NumGates returns the number of gates including PI pseudo-gates.
func (cc *Compiled) NumGates() int { return len(cc.Type) }

// NumInputs returns the number of primary inputs.
func (cc *Compiled) NumInputs() int { return len(cc.Inputs) }

// GateFanin returns the fanin gate ids of gate g in pin order. The
// slice aliases the CSR storage and must be treated as read-only.
func (cc *Compiled) GateFanin(g int) []int32 {
	return cc.Fanin[cc.FaninStart[g]:cc.FaninStart[g+1]]
}

// Compile lowers a frozen circuit into its flat simulation form. It is
// a pure derivation — O(gates + edges), no validation beyond what
// Freeze already guaranteed — and may be called concurrently.
func Compile(c *Circuit) *Compiled {
	n := len(c.Gates)
	cc := &Compiled{
		Circuit:     c,
		Fingerprint: c.Fingerprint(),
		Type:        make([]GateType, n),
		FaninStart:  make([]int32, n+1),
		FanoutStart: make([]int32, n+1),
		Level:       make([]int32, n),
		Order:       make([]int32, n),
		LevelStart:  make([]int32, c.MaxLevel+2),
		Output:      make([]bool, n),
		Inputs:      make([]int32, len(c.Inputs)),
		Outputs:     make([]int32, len(c.Outputs)),
		Root:        make([]int32, n),
		Succ:        make([]int32, n),
		SuccSlot:    make([]int32, n),
		MaxLevel:    c.MaxLevel,
	}

	edges, fanouts := 0, 0
	for gi, g := range c.Gates {
		cc.Type[gi] = g.Type
		cc.Level[gi] = int32(c.Level[gi])
		cc.Output[gi] = c.isOutput[gi]
		edges += len(g.Fanin)
		fanouts += len(c.Fanout[gi])
		if len(g.Fanin) > cc.MaxFanin {
			cc.MaxFanin = len(g.Fanin)
		}
	}
	cc.Fanin = make([]int32, 0, edges)
	for gi, g := range c.Gates {
		cc.FaninStart[gi] = int32(len(cc.Fanin))
		for _, f := range g.Fanin {
			cc.Fanin = append(cc.Fanin, int32(f))
		}
	}
	cc.FaninStart[n] = int32(len(cc.Fanin))

	cc.Fanout = make([]int32, 0, fanouts)
	for gi := 0; gi < n; gi++ {
		cc.FanoutStart[gi] = int32(len(cc.Fanout))
		for _, fo := range c.Fanout[gi] {
			cc.Fanout = append(cc.Fanout, int32(fo.Gate))
		}
	}
	cc.FanoutStart[n] = int32(len(cc.Fanout))

	// Levelized order by counting sort: level-major, ascending id
	// within a level (gi iterates ascending). LevelStart doubles as the
	// insertion cursor during the fill and is rebuilt afterwards.
	for gi := 0; gi < n; gi++ {
		cc.LevelStart[cc.Level[gi]+1]++
	}
	for l := 1; l < len(cc.LevelStart); l++ {
		cc.LevelStart[l] += cc.LevelStart[l-1]
	}
	cursor := make([]int32, c.MaxLevel+1)
	copy(cursor, cc.LevelStart)
	for gi := 0; gi < n; gi++ {
		lvl := cc.Level[gi]
		cc.Order[cursor[lvl]] = int32(gi)
		cursor[lvl]++
	}

	// Regions in one reverse pass: a gate's single fanout sits at a
	// higher level, so its root is final before the gate is visited.
	for i := n - 1; i >= 0; i-- {
		g := cc.Order[i]
		if fo := c.Fanout[g]; len(fo) == 1 && !cc.Output[g] {
			s := int32(fo[0].Gate)
			cc.Root[g] = cc.Root[s]
			cc.Succ[g] = s
			cc.SuccSlot[g] = cc.FaninStart[s] + int32(fo[0].Pin)
		} else {
			cc.Root[g], cc.Succ[g], cc.SuccSlot[g] = g, -1, -1
		}
	}

	for i, g := range c.Inputs {
		cc.Inputs[i] = int32(g)
	}
	for i, g := range c.Outputs {
		cc.Outputs[i] = int32(g)
	}
	return cc
}
