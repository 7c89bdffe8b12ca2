package circuit

import (
	"strings"
	"testing"
)

const c17Bench = `
# c17 ISCAS-85 style
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

func TestParseC17(t *testing.T) {
	c, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if c.NumInputs() != 5 || c.NumOutputs() != 2 {
		t.Fatalf("c17: %d inputs, %d outputs", c.NumInputs(), c.NumOutputs())
	}
	st := c.ComputeStats()
	if st.Gates != 6 {
		t.Fatalf("c17 gates = %d", st.Gates)
	}
	if st.Levels != 3 {
		t.Fatalf("c17 levels = %d", st.Levels)
	}
}

func TestParseForwardReference(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
y = AND(m, a)
m = NOT(a)
`
	c, err := ParseBenchString("fwd", src)
	if err != nil {
		t.Fatalf("forward reference should parse: %v", err)
	}
	m, _ := c.GateByName("m")
	if c.Gates[m].Type != Not {
		t.Fatal("wrong gate")
	}
}

func TestParseDFFScanConversion(t *testing.T) {
	src := `
# tiny sequential design
INPUT(x)
OUTPUT(z)
s = DFF(ns)
ns = XOR(x, s)
z = AND(x, s)
`
	c, err := ParseBenchString("seq", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// x + pseudo-PI s.
	if c.NumInputs() != 2 {
		t.Fatalf("inputs = %d, want 2", c.NumInputs())
	}
	// z + pseudo-PO ns.
	if c.NumOutputs() != 2 {
		t.Fatalf("outputs = %d, want 2", c.NumOutputs())
	}
	s, ok := c.GateByName("s")
	if !ok || c.Gates[s].Type != PI {
		t.Fatal("DFF output must become a pseudo-PI")
	}
	ns, _ := c.GateByName("ns")
	if !c.IsOutput(ns) {
		t.Fatal("DFF data input must become a pseudo-PO")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"garbage", "INPUT(a)\nwat\n", "assignment"},
		{"unknownop", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "unknown gate type"},
		{"undefined", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "undefined signal"},
		{"dup", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n", "duplicate"},
		{"badinput", "INPUT(a,b)\nOUTPUT(a)\n", "malformed"},
		{"dffarity", "INPUT(a)\nOUTPUT(a)\ns = DFF(a, a)\n", "exactly one"},
		{"undefout", "INPUT(a)\nOUTPUT(ghost)\na2 = NOT(a)\n", "undefined"},
		{"emptyarg", "INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n", "empty argument"},
		{"noparen", "INPUT(a)\nOUTPUT(y)\ny = NOT a\n", "malformed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseBenchString(c.name, c.src)
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("want error containing %q, got %v", c.wantSub, err)
			}
		})
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c1, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	out := BenchString(c1)
	c2, err := ParseBenchString("c17rt", out)
	if err != nil {
		t.Fatalf("re-parse of written bench failed: %v\n%s", err, out)
	}
	if c1.NumGates() != c2.NumGates() || c1.NumInputs() != c2.NumInputs() || c1.NumOutputs() != c2.NumOutputs() {
		t.Fatal("round trip changed structure")
	}
	s1, s2 := c1.ComputeStats(), c2.ComputeStats()
	if s1 != s2 {
		t.Fatalf("round trip changed stats: %+v vs %+v", s1, s2)
	}
}

func TestBenchCommentsAndCase(t *testing.T) {
	src := `
# leading comment
input(a)   # trailing comment
INPUT(b)
output(y)
y = nand(a, b)
`
	c, err := ParseBenchString("case", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	y, _ := c.GateByName("y")
	if c.Gates[y].Type != Nand {
		t.Fatal("lower-case nand not recognized")
	}
}
