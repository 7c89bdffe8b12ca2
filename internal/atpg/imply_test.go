package atpg

import (
	"fmt"
	"testing"

	"github.com/eda-go/adifo/internal/circuit"
	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/logic"
)

// TestPackedEvalMatchesEvalV3 checks the packed two-rail evaluation
// against the three-valued oracle circuit.EvalV3, machine by machine:
// every gate type at every fanin from 1 to 4 the type allows, every
// good × faulty input combination in {0,1,X}^k, with no fault, each
// stem fault and each branch fault of the gate.
func TestPackedEvalMatchesEvalV3(t *testing.T) {
	types := []circuit.GateType{circuit.Buf, circuit.Not, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
	vals := []logic.V3{logic.Zero, logic.One, logic.X}
	for _, ty := range types {
		maxIn := ty.MaxFanin()
		if maxIn == 0 {
			maxIn = 4
		}
		for k := ty.MinFanin(); k <= maxIn; k++ {
			b := circuit.NewBuilder(fmt.Sprintf("%v%d", ty, k))
			fanin := make([]int, k)
			for p := range fanin {
				fanin[p] = b.AddInput(fmt.Sprintf("i%d", p))
			}
			y := b.AddGate("y", ty, fanin...)
			b.MarkOutput(y)
			c, err := b.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			g := New(circuit.Compile(c), Options{})

			// pin -2: no fault; StemPin: stem fault; 0..k-1: branch fault.
			for pin := -2; pin < k; pin++ {
				for sa := uint8(0); sa <= 1; sa++ {
					if pin == -2 {
						if sa == 1 {
							continue
						}
						g.stemGate, g.branchGate = -1, -1
					} else {
						g.setTarget(fault.Fault{Gate: y, Pin: pin, SA: sa})
					}
					good := make([]logic.V3, k)
					bad := make([]logic.V3, k)
					for combo := 0; combo < pow(9, k); combo++ {
						for p, x := 0, combo; p < k; p, x = p+1, x/9 {
							good[p], bad[p] = vals[x%3], vals[x/3%3]
							g.val[fanin[p]] = packV3(good[p])&goodRails | packV3(bad[p])&badRails
						}
						wantGood := circuit.EvalV3(ty, good)
						if pin >= 0 {
							bad[pin] = logic.FromBit(sa)
						}
						wantBad := circuit.EvalV3(ty, bad)
						if pin == fault.StemPin {
							wantBad = logic.FromBit(sa)
						}
						got := g.eval(int32(y))
						if goodV3(got) != wantGood || badV3(got) != wantBad || got&goodRails == goodRails || got&badRails == badRails {
							t.Fatalf("%v fanin %d, pin %d sa%d, good %v faulty %v: packed %04b, want good %v faulty %v",
								ty, k, pin, sa, good, bad, got, wantGood, wantBad)
						}
					}
				}
			}
		}
	}
}

func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}
