package service

import (
	"fmt"

	"github.com/eda-go/adifo/internal/adi"
)

// adiOrderKind computes the accidental detection index over the job's
// vector set U and returns one of the paper's six fault orders — the
// ordering stage of the pipeline as a standalone remote job, so a
// client can derive an order once on a server that has the (circuit,
// U) simulation cached and drive its own generation locally.
type adiOrderKind struct{}

// shardable: the dynamic orders decrement shared ndet counters as
// faults are placed, so an order cannot be derived per fault range and
// concatenated.
func (adiOrderKind) shardable() bool { return false }

func (adiOrderKind) validate(spec JobSpec) error {
	if err := validateOrderedSpec(spec); err != nil {
		return err
	}
	if spec.Gen != nil {
		return fmt.Errorf("gen spec applies only to atpg jobs")
	}
	return nil
}

func (adiOrderKind) run(s *Service, j *job) (any, error) {
	entry, ix, err := s.computeIndex(j)
	if err != nil {
		return nil, err
	}
	// Validated at submit.
	kind, _ := adi.ParseOrder(j.spec.Order.Kind)
	stopOrder := j.phase(PhaseOrder)
	perm := ix.Order(kind)
	mn, mx := ix.MinMax()
	stopOrder()

	out := &OrderResult{
		ID:          j.id,
		Kind:        KindADIOrder,
		Circuit:     entry.Circuit.Name,
		Fingerprint: fmt.Sprintf("%016x", entry.Fingerprint),
		Order:       kind.String(),
		Faults:      entry.Faults.Len(),
		Vectors:     ix.U.Len(),
		NumDetected: ix.NumDetected(),
		ADIMin:      mn,
		ADIMax:      mx,
		Ratio:       ix.Ratio(),
		Perm:        perm,
		ADI:         append([]int(nil), ix.ADI...),
		Ndet:        append([]int(nil), ix.Ndet...),
		Names:       make([]string, entry.Faults.Len()),
	}
	for fi, f := range entry.Faults.Faults {
		out.Names[fi] = f.Name(entry.Circuit)
	}

	j.mu.Lock()
	j.status.VectorsUsed = ix.U.Len()
	j.status.Detected = ix.NumDetected()
	j.mu.Unlock()
	return out, nil
}

// OrderResult is the outcome of an adi_order job: the requested fault
// order together with the index data it was derived from, so a client
// can both drive generation and reproduce the paper's Table 4 spread
// statistics without re-simulating.
type OrderResult struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Circuit     string `json:"circuit"`
	Fingerprint string `json:"fingerprint"`
	// Order is the canonical label of the computed order.
	Order string `json:"order"`
	// Faults is the collapsed fault universe size; Vectors is |U|.
	Faults  int `json:"faults"`
	Vectors int `json:"vectors"`
	// NumDetected is |F_U|, the number of faults U detects.
	NumDetected int `json:"num_detected"`
	// ADIMin and ADIMax are the paper's ADImin/ADImax over detected
	// faults; Ratio is ADImax/ADImin (0 when undefined).
	ADIMin int     `json:"adi_min"`
	ADIMax int     `json:"adi_max"`
	Ratio  float64 `json:"ratio"`
	// Perm is the fault order: Perm[pos] is the collapsed fault index
	// placed at position pos. Always a permutation of [0, Faults).
	Perm []int `json:"perm"`
	// ADI[f] is the accidental detection index of fault f (0 for
	// faults U misses); Ndet[u] is the number of faults vector u
	// detects.
	ADI  []int `json:"adi"`
	Ndet []int `json:"ndet"`
	// Names[f] is the display name of collapsed fault f.
	Names []string `json:"names,omitempty"`
	// Timing is the job's wall-clock record, attached by the engine at
	// the terminal transition.
	Timing *Timing `json:"timing,omitempty"`
	// TraceID is the job's distributed-trace id, identical to the one
	// on the status. Additive to the v1 wire.
	TraceID string `json:"trace_id,omitempty"`
}
