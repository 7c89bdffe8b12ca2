package atpg

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/eda-go/adifo/internal/benchdata"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/gen"
)

// update rewrites testdata/podem.golden. Regenerate deliberately with:
//
//	go test ./internal/atpg -run PodemGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// podemDigest runs PODEM at the default backtrack limit on every fault
// of c's full universe and renders one golden line: the status counts,
// the total backtracks and decisions, and an FNV-64a digest over
// (fault, status, backtracks, decisions, cube) per fault.
func podemDigest(c *circuit.Circuit) string {
	fl := fault.Universe(c)
	g := New(circuit.Compile(c), Options{})
	h := fnv.New64a()
	var counts [3]int
	backtracks, decisions := 0, 0
	buf := make([]byte, 0, 64)
	for _, f := range fl.Faults {
		r := g.Generate(f)
		counts[r.Status]++
		backtracks += r.Backtracks
		decisions += r.Decisions
		buf = buf[:0]
		for _, v := range []int{f.Gate, f.Pin, int(f.SA), int(r.Status), r.Backtracks, r.Decisions} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		for _, v := range r.Cube {
			buf = append(buf, byte(v))
		}
		h.Write(buf)
	}
	return fmt.Sprintf("%s faults=%d success=%d redundant=%d aborted=%d backtracks=%d decisions=%d digest=%016x",
		c.Name, fl.Len(), counts[Success], counts[Redundant], counts[Aborted], backtracks, decisions, h.Sum64())
}

// TestPodemGolden pins every PODEM decision: a change to the search
// (implication, backtrace, objective selection, the D-frontier or the
// X-path check) that alters any fault's status, effort or cube changes
// a digest. Beside c17 and lion it covers the raw netlists of the
// suite members irs208–irs641: unlike their irredundant versions,
// whose faults almost all succeed, they exercise the Redundant and
// Aborted outcomes too.
func TestPodemGolden(t *testing.T) {
	circuits := []*circuit.Circuit{benchdata.MustLoad("c17"), benchdata.MustLoad("lion")}
	for _, sc := range gen.PaperSuite()[:9] {
		circuits = append(circuits, sc.Build())
	}
	var lines []string
	for _, c := range circuits {
		lines = append(lines, podemDigest(c))
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "podem.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d lines, run produced %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("PODEM outcome changed\n got: %s\nwant: %s", lines[i], wantLines[i])
		}
	}
}
