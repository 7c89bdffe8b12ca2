package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseBench reads a netlist in the ISCAS-89 .bench format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(y)
//	y = NAND(a, b)
//	s = DFF(d)
//
// Sequential designs are converted to their full-scan combinational
// core during parsing: each DFF output becomes a pseudo primary input
// and each DFF data input becomes a pseudo primary output, mirroring
// the paper's treatment of the ISCAS-89 benchmarks. The pseudo-PIs are
// appended after the real PIs, pseudo-POs after the real POs, both in
// DFF declaration order.
//
// Gate declarations may reference signals defined later in the file;
// the parser resolves forward references after reading the whole
// description.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	type protoGate struct {
		typ   GateType
		fanin []string
		line  int
	}
	var (
		inputs   []string
		outputs  []string
		dffOrder []string // DFF output signals in declaration order
		dffData  = map[string]string{}
		gates    = map[string]protoGate{}
		order    []string // gate definition order, for stable ids
	)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT"):
			sig, err := parseParen(line, "INPUT")
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
			}
			inputs = append(inputs, sig)
		case hasPrefixFold(line, "OUTPUT"):
			sig, err := parseParen(line, "OUTPUT")
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
			}
			outputs = append(outputs, sig)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("%s:%d: expected assignment, got %q", name, lineNo, line)
			}
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			op, args, err := parseCall(rhs)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, lineNo, err)
			}
			if lhs == "" {
				return nil, fmt.Errorf("%s:%d: empty signal name", name, lineNo)
			}
			if strings.EqualFold(op, "DFF") {
				if len(args) != 1 {
					return nil, fmt.Errorf("%s:%d: DFF takes exactly one input", name, lineNo)
				}
				if _, dup := dffData[lhs]; dup {
					return nil, fmt.Errorf("%s:%d: duplicate definition of %q", name, lineNo, lhs)
				}
				dffOrder = append(dffOrder, lhs)
				dffData[lhs] = args[0]
				continue
			}
			typ, ok := gateTypeByName(op)
			if !ok {
				return nil, fmt.Errorf("%s:%d: unknown gate type %q", name, lineNo, op)
			}
			if _, dup := gates[lhs]; dup {
				return nil, fmt.Errorf("%s:%d: duplicate definition of %q", name, lineNo, lhs)
			}
			gates[lhs] = protoGate{typ: typ, fanin: args, line: lineNo}
			order = append(order, lhs)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}

	b := NewBuilder(name)
	ids := map[string]int{}
	for _, sig := range inputs {
		ids[sig] = b.AddInput(sig)
	}
	// Scan conversion: DFF outputs are pseudo primary inputs.
	for _, sig := range dffOrder {
		ids[sig] = b.AddInput(sig)
	}
	// Declare logic gates in definition order; resolve fanins after
	// all ids exist (forward references are legal in .bench).
	for _, sig := range order {
		ids[sig] = b.addGate(sig, gates[sig].typ, nil)
	}
	for _, sig := range order {
		pg := gates[sig]
		fanin := make([]int, len(pg.fanin))
		for i, fs := range pg.fanin {
			id, ok := ids[fs]
			if !ok {
				return nil, fmt.Errorf("%s:%d: gate %q references undefined signal %q", name, pg.line, sig, fs)
			}
			fanin[i] = id
		}
		b.c.Gates[ids[sig]].Fanin = fanin
	}
	for _, sig := range outputs {
		id, ok := ids[sig]
		if !ok {
			return nil, fmt.Errorf("%s: OUTPUT(%s) references undefined signal", name, sig)
		}
		b.MarkOutput(id)
	}
	// Scan conversion: DFF data inputs are pseudo primary outputs.
	for _, sig := range dffOrder {
		id, ok := ids[dffData[sig]]
		if !ok {
			return nil, fmt.Errorf("%s: DFF %q references undefined signal %q", name, sig, dffData[sig])
		}
		b.MarkOutput(id)
	}
	return b.Freeze()
}

// ParseBenchString is ParseBench over an in-memory description.
func ParseBenchString(name, src string) (*Circuit, error) {
	return ParseBench(name, strings.NewReader(src))
}

// WriteBench writes the circuit in .bench format. Scan pseudo-inputs
// and pseudo-outputs are emitted as plain INPUT/OUTPUT declarations
// (the circuit is combinational by construction, so the round trip is
// stable even for designs that originated from sequential sources).
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	st := c.ComputeStats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates, %d levels\n",
		st.Inputs, st.Outputs, st.Gates, st.Levels)
	for _, id := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[id].Name)
	}
	for _, id := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[id].Name)
	}
	for _, gi := range c.Topo {
		g := &c.Gates[gi]
		if g.Type == PI {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// BenchString renders the circuit as a .bench description.
func BenchString(c *Circuit) string {
	var sb strings.Builder
	_ = WriteBench(&sb, c) // strings.Builder never errors
	return sb.String()
}

func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	if !strings.EqualFold(s[:len(prefix)], prefix) {
		return false
	}
	rest := strings.TrimSpace(s[len(prefix):])
	return strings.HasPrefix(rest, "(")
}

// parseParen extracts the single argument of "KEYWORD(arg)".
func parseParen(line, keyword string) (string, error) {
	rest := strings.TrimSpace(line[len(keyword):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("malformed %s declaration %q", keyword, line)
	}
	arg := strings.TrimSpace(rest[1 : len(rest)-1])
	if arg == "" || strings.ContainsAny(arg, ",()") {
		return "", fmt.Errorf("malformed %s declaration %q", keyword, line)
	}
	return arg, nil
}

// parseCall splits "OP(a, b, c)" into the operator and argument list.
func parseCall(rhs string) (op string, args []string, err error) {
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return "", nil, fmt.Errorf("malformed gate expression %q", rhs)
	}
	op = strings.TrimSpace(rhs[:open])
	if op == "" {
		return "", nil, fmt.Errorf("malformed gate expression %q", rhs)
	}
	inner := rhs[open+1 : len(rhs)-1]
	for _, part := range strings.Split(inner, ",") {
		a := strings.TrimSpace(part)
		if a == "" {
			return "", nil, fmt.Errorf("empty argument in %q", rhs)
		}
		args = append(args, a)
	}
	if len(args) == 0 {
		return "", nil, fmt.Errorf("gate expression %q has no arguments", rhs)
	}
	return op, args, nil
}

func gateTypeByName(op string) (GateType, bool) {
	switch strings.ToUpper(op) {
	case "BUF", "BUFF":
		return Buf, true
	case "NOT", "INV":
		return Not, true
	case "AND":
		return And, true
	case "NAND":
		return Nand, true
	case "OR":
		return Or, true
	case "NOR":
		return Nor, true
	case "XOR":
		return Xor, true
	case "XNOR":
		return Xnor, true
	}
	return 0, false
}
