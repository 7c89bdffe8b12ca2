package fault

import (
	"strings"
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
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

func parseC17(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestUniverseC17(t *testing.T) {
	c := parseC17(t)
	u := Universe(c)
	// 11 stems (5 PIs + 6 gates) + 6 branches (nets 3, 11, 16 each
	// fan out to two sinks) = 17 lines = 34 faults.
	if u.Len() != 34 {
		t.Fatalf("universe = %d faults, want 34", u.Len())
	}
}

func TestCollapseC17(t *testing.T) {
	c := parseC17(t)
	collapsed, toRep := Collapse(Universe(c))
	// The textbook equivalence-collapsed fault count for c17 is 22.
	if collapsed.Len() != 22 {
		t.Fatalf("collapsed = %d faults, want 22", collapsed.Len())
	}
	// Every universe fault maps to a valid representative, and every
	// representative maps to itself.
	u := Universe(c)
	for _, f := range u.Faults {
		r, ok := toRep[f]
		if !ok || r < 0 || r >= collapsed.Len() {
			t.Fatalf("fault %v has bad representative %d", f, r)
		}
	}
	for i, f := range collapsed.Faults {
		if toRep[f] != i {
			t.Fatalf("representative %v does not map to itself", f)
		}
	}
}

func TestCollapseEquivalenceDirections(t *testing.T) {
	// Chain: a -> NOT n -> NOT m -> output. All six faults collapse
	// into one class pair: a sa0 ≡ n sa1 ≡ m sa0 and a sa1 ≡ n sa0 ≡
	// m sa1.
	src := `
INPUT(a)
OUTPUT(m)
n = NOT(a)
m = NOT(n)
`
	c, err := circuit.ParseBenchString("chain", src)
	if err != nil {
		t.Fatal(err)
	}
	collapsed, toRep := Collapse(Universe(c))
	if collapsed.Len() != 2 {
		t.Fatalf("collapsed = %d faults, want 2", collapsed.Len())
	}
	a, _ := c.GateByName("a")
	n, _ := c.GateByName("n")
	m, _ := c.GateByName("m")
	if toRep[Fault{a, StemPin, 0}] != toRep[Fault{n, StemPin, 1}] ||
		toRep[Fault{n, StemPin, 1}] != toRep[Fault{m, StemPin, 0}] {
		t.Fatal("NOT-chain sa0 equivalence broken")
	}
	if toRep[Fault{a, StemPin, 1}] != toRep[Fault{n, StemPin, 0}] ||
		toRep[Fault{n, StemPin, 0}] != toRep[Fault{m, StemPin, 1}] {
		t.Fatal("NOT-chain sa1 equivalence broken")
	}
}

func TestCollapseAndGate(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
`
	c, err := circuit.ParseBenchString("and2", src)
	if err != nil {
		t.Fatal(err)
	}
	collapsed, toRep := Collapse(Universe(c))
	// Universe: 3 stems * 2 = 6 faults (no fanout). a sa0 ≡ b sa0 ≡
	// y sa0 -> classes: {a0,b0,y0}, {a1}, {b1}, {y1} = 4.
	if collapsed.Len() != 4 {
		t.Fatalf("collapsed = %d faults, want 4", collapsed.Len())
	}
	a, _ := c.GateByName("a")
	b, _ := c.GateByName("b")
	y, _ := c.GateByName("y")
	if toRep[Fault{a, StemPin, 0}] != toRep[Fault{y, StemPin, 0}] ||
		toRep[Fault{b, StemPin, 0}] != toRep[Fault{y, StemPin, 0}] {
		t.Fatal("AND sa0 inputs must collapse onto output sa0")
	}
	if toRep[Fault{a, StemPin, 1}] == toRep[Fault{b, StemPin, 1}] {
		t.Fatal("AND sa1 inputs must stay distinct")
	}
}

func TestCollapseXorKeepsAll(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
`
	c, err := circuit.ParseBenchString("xor2", src)
	if err != nil {
		t.Fatal(err)
	}
	collapsed, _ := Collapse(Universe(c))
	if collapsed.Len() != 6 {
		t.Fatalf("collapsed = %d faults, want 6 (XOR admits no equivalences)", collapsed.Len())
	}
}

func TestBranchFaultsOnlyOnFanoutStems(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
y = AND(a, b)
z = OR(a, b)
`
	c, err := circuit.ParseBenchString("fan", src)
	if err != nil {
		t.Fatal(err)
	}
	u := Universe(c)
	branches := 0
	for _, f := range u.Faults {
		if f.Pin != StemPin {
			branches++
		}
	}
	// a and b each fan out to 2 sinks: 4 branch sites = 8 branch
	// faults.
	if branches != 8 {
		t.Fatalf("branch faults = %d, want 8", branches)
	}
}

func TestClassesPartitionUniverse(t *testing.T) {
	c := parseC17(t)
	u := Universe(c)
	collapsed, toRep := Collapse(u)
	classes := make([][]Fault, collapsed.Len())
	for _, f := range u.Faults {
		r, ok := toRep[f]
		if !ok || r < 0 || r >= len(classes) {
			t.Fatalf("fault %v has no representative (%d, %v)", f, r, ok)
		}
		classes[r] = append(classes[r], f)
	}
	for ci, rep := range collapsed.Faults {
		if toRep[rep] != ci {
			t.Fatalf("representative %v maps to class %d, want %d", rep, toRep[rep], ci)
		}
	}
	total := 0
	seen := map[Fault]bool{}
	for _, cl := range classes {
		if len(cl) == 0 {
			t.Fatal("empty equivalence class")
		}
		for _, f := range cl {
			if seen[f] {
				t.Fatalf("fault %v appears in two classes", f)
			}
			seen[f] = true
		}
		total += len(cl)
	}
	if total != u.Len() {
		t.Fatalf("classes cover %d faults, universe has %d", total, u.Len())
	}
}

func TestFaultNames(t *testing.T) {
	c := parseC17(t)
	g16, _ := c.GateByName("16")
	stem := Fault{Gate: g16, Pin: StemPin, SA: 0}
	if got := stem.Name(c); got != "16 sa0" {
		t.Fatalf("stem name = %q", got)
	}
	branch := Fault{Gate: g16, Pin: 1, SA: 1}
	if got := branch.Name(c); !strings.Contains(got, "in1") || !strings.Contains(got, "sa1") {
		t.Fatalf("branch name = %q", got)
	}
	if stem.String() == "" {
		t.Fatal("String must not be empty")
	}
}

// TestFaultName pins the exact stem and branch renderings the grade
// results carry, for Name and for AppendName after a prefix.
func TestFaultName(t *testing.T) {
	c := parseC17(t)
	g16, _ := c.GateByName("16")
	g22, _ := c.GateByName("22")
	for _, tc := range []struct {
		f    Fault
		want string
	}{
		{Fault{Gate: g16, Pin: StemPin, SA: 0}, "16 sa0"},
		{Fault{Gate: g16, Pin: StemPin, SA: 1}, "16 sa1"},
		{Fault{Gate: g22, Pin: 0, SA: 0}, "22.in0 sa0"},
		{Fault{Gate: g22, Pin: 1, SA: 1}, "22.in1 sa1"},
		{Fault{Gate: g22, Pin: 12, SA: 1}, "22.in12 sa1"},
	} {
		if got := tc.f.Name(c); got != tc.want {
			t.Errorf("Name(%+v) = %q, want %q", tc.f, got, tc.want)
		}
		if got := string(tc.f.AppendName([]byte("x|"), c)); got != "x|"+tc.want {
			t.Errorf("AppendName(%+v) = %q, want %q", tc.f, got, "x|"+tc.want)
		}
	}
}

func TestUniverseDeterministic(t *testing.T) {
	c := parseC17(t)
	u1 := Universe(c)
	u2 := Universe(c)
	for i := range u1.Faults {
		if u1.Faults[i] != u2.Faults[i] {
			t.Fatal("universe enumeration is not deterministic")
		}
	}
}

func TestCollapsedUniverseMatchesCollapse(t *testing.T) {
	c := parseC17(t)
	a := CollapsedUniverse(c)
	b, _ := Collapse(Universe(c))
	if a.Len() != b.Len() {
		t.Fatal("CollapsedUniverse disagrees with Collapse")
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatal("CollapsedUniverse order disagrees with Collapse")
		}
	}
}
