package experiments

import (
	"fmt"

	"github.com/eda-go/adifo/internal/adi"
	"github.com/eda-go/adifo/internal/report"
	"github.com/eda-go/adifo/internal/tgen"
)

// AblationRow is one (circuit, variant) measurement.
type AblationRow struct {
	Circuit string
	Variant string
	Tests   int
	AVE     float64
}

// AblationVariant names one ordering strategy under ablation.
type AblationVariant struct {
	Name string
	// Order produces the fault order to run given a prepared setup.
	Order func(setup *Setup) []int
}

// AblationVariants returns the design-choice ablations DESIGN.md
// calls out:
//
//   - static vs dynamic ordering (Fdecr/F0decr vs Fdynm/F0dynm) — the
//     paper keeps only the dynamic variants in its tables because
//     "Fdynm and F0dynm proved to be better" (Section 4); the ablation
//     quantifies that choice;
//   - n-detection ADI estimation (n=4) vs full no-drop simulation —
//     the cheaper estimator mentioned in Section 2;
//   - a 64-vector U vs the paper-sized (~90% coverage) U — how
//     sensitive the heuristic is to the vector budget.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "orig", Order: func(s *Setup) []int { return s.Index.Order(adi.Orig) }},
		{Name: "decr", Order: func(s *Setup) []int { return s.Index.Order(adi.Decr) }},
		{Name: "0decr", Order: func(s *Setup) []int { return s.Index.Order(adi.Decr0) }},
		{Name: "dynm", Order: func(s *Setup) []int { return s.Index.Order(adi.Dynm) }},
		{Name: "0dynm", Order: func(s *Setup) []int { return s.Index.Order(adi.Dynm0) }},
		{Name: "dynm/ndet4", Order: func(s *Setup) []int {
			ix := adi.ComputeNDetect(s.Faults, s.U, 4)
			return ix.Order(adi.Dynm)
		}},
		{Name: "dynm/u64", Order: func(s *Setup) []int {
			small := s.U.Slice(min(64, s.U.Len()))
			ix := adi.Compute(s.Faults, small)
			return ix.Order(adi.Dynm)
		}},
	}
}

// Ablation runs every variant over prepared suite members and reports
// test-set size and AVE per (circuit, variant).
func Ablation(setups []*Setup) ([]AblationRow, string) {
	var rows []AblationRow
	for _, setup := range setups {
		for _, v := range AblationVariants() {
			res := tgen.Generate(setup.Faults, v.Order(setup), tgen.Options{
				FillSeed: FillSeed,
				Validate: true,
			})
			rows = append(rows, AblationRow{
				Circuit: setup.Suite.Name,
				Variant: v.Name,
				Tests:   len(res.Tests),
				AVE:     res.AVE(),
			})
		}
	}
	return rows, FormatAblation(rows)
}

// FormatAblation renders the ablation as one table per metric with a
// column per variant.
func FormatAblation(rows []AblationRow) string {
	variants := AblationVariants()
	headers := append([]string{"circuit"}, variantNames(variants)...)

	sizes := report.NewTable("Ablation: test-set size by ordering variant", headers...)
	aves := report.NewTable("Ablation: AVE by ordering variant", headers...)

	byCircuit := map[string]map[string]AblationRow{}
	var order []string
	for _, r := range rows {
		m, ok := byCircuit[r.Circuit]
		if !ok {
			m = map[string]AblationRow{}
			byCircuit[r.Circuit] = m
			order = append(order, r.Circuit)
		}
		m[r.Variant] = r
	}
	for _, name := range order {
		m := byCircuit[name]
		sizeCells := []string{name}
		aveCells := []string{name}
		for _, v := range variants {
			r, ok := m[v.Name]
			if !ok {
				sizeCells = append(sizeCells, "-")
				aveCells = append(aveCells, "-")
				continue
			}
			sizeCells = append(sizeCells, fmt.Sprint(r.Tests))
			aveCells = append(aveCells, fmt.Sprintf("%.2f", r.AVE))
		}
		sizes.AddRowCells(sizeCells)
		aves.AddRowCells(aveCells)
	}
	return sizes.String() + "\n" + aves.String()
}

func variantNames(vs []AblationVariant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}
