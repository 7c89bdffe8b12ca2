package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sync"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/experiments"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/fsim"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/irr"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
	"github.com/eda-go/adifo/internal/tgen"
)

// paperRow is one suite member's Table 4-7 row plus the generation
// effort behind it. paper_rows.json pins the rows the paper's frozen
// seeds give; every op must reproduce its row exactly.
type paperRow struct {
	Circuit    string             `json:"circuit"`
	U          int                `json:"u"`
	ADIMin     int                `json:"adi_min"`
	ADIMax     int                `json:"adi_max"`
	Tests      map[string]int     `json:"tests"`
	AVE        map[string]float64 `json:"ave"`
	AtpgCalls  int                `json:"atpg_calls"`
	Backtracks int                `json:"backtracks"`
}

//go:embed paper_rows.json
var paperRowsJSON []byte

// paperMembers are the suite members irs208-irs641. Later members are
// left out: each one's irredundancy pass alone takes 6-25 s.
var paperMembers = []string{"irs208", "irs298", "irs344", "irs382", "irs400", "irs420", "irs510", "irs526", "irs641"}

// paperRound weights the members so that p50 falls inside irs510's ops
// and p90 inside irs641's, each at least 5 points of cumulative weight
// away from a member boundary (by op latency: five lighter members at
// 1/12 each, irs510 at 3/12, irs344 and irs420 at 1/12, irs641 at
// 2/12).
var paperRound = []int{0, 8, 1, 6, 2, 3, 6, 4, 8, 5, 6, 7}

// paperTables is the paper's own evaluation as a batch workload: one
// client regenerating suite members' Table 4-7 rows with library calls.
type paperTables struct {
	suite    []gen.SuiteCircuit
	pinned   []paperRow
	circuits []*circuit.Circuit

	mk    *marks
	mu    sync.Mutex
	count paperCounts // summed over the traced ops
}

type paperCounts struct {
	tests, calls, backtracks, vectors int
}

func newPaperTables(mk *marks) (*paperTables, error) {
	var rows []paperRow
	if err := json.Unmarshal(paperRowsJSON, &rows); err != nil {
		return nil, fmt.Errorf("paper_rows.json: %w", err)
	}
	p := &paperTables{mk: mk}
	for i, name := range paperMembers {
		sc, ok := gen.SuiteByName(name)
		if !ok {
			return nil, fmt.Errorf("suite member %s not found", name)
		}
		if i >= len(rows) || rows[i].Circuit != name {
			return nil, fmt.Errorf("paper_rows.json: row %d is not %s", i, name)
		}
		p.suite = append(p.suite, sc)
	}
	p.pinned = rows
	return p, nil
}

func (p *paperTables) clients() int      { return 1 }
func (p *paperTables) round() []int      { return paperRound }
func (p *paperTables) setUps() int       { return 3 }
func (p *paperTables) close()            {}
func (p *paperTables) beginPhase() error { return nil }

// setUp builds the irredundant netlists, as experiments.Prepare does.
func (p *paperTables) setUp(tr *tracer) error {
	root := tr.begin(-1, -1, "setup")
	defer tr.end(root)
	p.circuits = p.circuits[:0]
	for _, sc := range p.suite {
		s := tr.begin(-1, root, "gen.generate")
		raw := gen.Generate(sc.Config())
		tr.end(s)
		s = tr.begin(-1, root, "irr.make")
		c, _, err := irr.Make(raw, irr.Options{})
		tr.end(s)
		if err != nil {
			return fmt.Errorf("irr %s: %w", sc.Name, err)
		}
		p.circuits = append(p.circuits, c)
	}
	return nil
}

// op regenerates member cls's row the way experiments.Prepare and
// experiments.RunCircuit do, after the irredundancy pass.
func (p *paperTables) op(tr *tracer, trace int64, cls int) error {
	root := tr.begin(trace, -1, "op")
	defer tr.end(root)
	sc, c := p.suite[cls], p.circuits[cls]

	s := tr.begin(trace, root, "fault.collapse")
	fl := fault.CollapsedUniverse(c)
	tr.end(s)

	s = tr.begin(trace, root, "fsim.size_u")
	candidates := logic.RandomPatterns(c.NumInputs(), experiments.MaxRandomVectors, prng.New(experiments.USeed))
	sizing := fsim.Run(fl, candidates, fsim.Options{Mode: fsim.Drop, StopAtCoverage: experiments.TargetCoverage})
	u := candidates.Slice(sizing.VectorsUsed)
	tr.end(s)

	s = tr.begin(trace, root, "adi.compute")
	ix := adi.Compute(fl, u)
	tr.end(s)

	mn, mx := ix.MinMax()
	row := paperRow{Circuit: sc.Name, U: u.Len(), ADIMin: mn, ADIMax: mx,
		Tests: map[string]int{}, AVE: map[string]float64{}}
	kinds := []adi.OrderKind{adi.Orig, adi.Dynm, adi.Dynm0}
	if !sc.SkipIncr0 {
		kinds = append(kinds, adi.Incr0)
	}
	for _, kind := range kinds {
		s = tr.begin(trace, root, "adi.order")
		order := ix.Order(kind)
		tr.end(s)
		s = tr.begin(trace, root, "tgen.generate")
		r := tgen.Generate(fl, order, tgen.Options{FillSeed: experiments.FillSeed, Validate: true})
		tr.end(s)
		row.Tests[kind.String()] = len(r.Tests)
		row.AVE[kind.String()] = r.AVE()
		row.AtpgCalls += r.AtpgCalls
		row.Backtracks += r.Backtracks
	}
	if tr.on {
		p.mu.Lock()
		for _, t := range row.Tests {
			p.count.tests += t
		}
		p.count.calls += row.AtpgCalls
		p.count.backtracks += row.Backtracks
		p.count.vectors += row.U
		p.mu.Unlock()
	}
	return p.pinned[cls].check(row, p.mk)
}

// check compares a regenerated row with the pinned one. A differing
// table value is a wrong result; a differing effort count (PODEM is
// deterministic, so for the frozen seeds it repeats exactly) makes the
// run not comparable.
func (want paperRow) check(got paperRow, mk *marks) error {
	if got.AtpgCalls != want.AtpgCalls {
		mk.add("atpg.calls", "%s: %d, pinned %d", want.Circuit, got.AtpgCalls, want.AtpgCalls)
	}
	if got.Backtracks != want.Backtracks {
		mk.add("atpg.backtracks", "%s: %d, pinned %d", want.Circuit, got.Backtracks, want.Backtracks)
	}
	if got.U != want.U {
		mk.add("fsim.size_u_vectors", "%s: %d, pinned %d", want.Circuit, got.U, want.U)
	}
	got.AtpgCalls, got.Backtracks = want.AtpgCalls, want.Backtracks
	a, err := json.Marshal(want)
	if err != nil {
		return err
	}
	b, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		mk.add("tgen.tests", "%s row differs from the pinned row", want.Circuit)
		return fmt.Errorf("%s row differs from the pinned row:\n got  %s\n want %s", want.Circuit, b, a)
	}
	return nil
}

func (p *paperTables) endPhase(ph *phase, tr *tracer, layers map[string]float64) error {
	if !tr.on {
		return nil
	}
	ops := float64(ph.tracedOps)
	self := tr.selfTime(func(trace int64) bool { return trace >= 0 })
	for _, n := range []string{"fault.collapse", "fsim.size_u", "adi.compute", "adi.order", "tgen.generate"} {
		layers[n+"_ms"] = ms(self[n]) / ops
	}
	p.mu.Lock()
	sum := p.count
	p.mu.Unlock()
	layers["tgen.tests"] = float64(sum.tests) / ops
	layers["atpg.calls"] = float64(sum.calls) / ops
	layers["atpg.backtracks"] = float64(sum.backtracks) / ops
	layers["fsim.size_u_vectors"] = float64(sum.vectors) / ops
	if sum.calls > 0 {
		layers["tgen.tests_per_atpg_call"] = float64(sum.tests) / float64(sum.calls)
	}
	return nil
}
