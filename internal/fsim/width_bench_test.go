package fsim

import (
	"strconv"
	"testing"

	"github.com/eda-go/adifo/internal/fault"
	"github.com/eda-go/adifo/internal/gen"
	"github.com/eda-go/adifo/internal/logic"
	"github.com/eda-go/adifo/internal/prng"
)

// BenchmarkWidthSweep crosses the explicit kernel block widths with
// the dropping modes on the large suite circuits, through the
// stem-region kernel of RunParallelWith: the numbers behind the
// mode-aware automatic width rule in pickLanes.
func BenchmarkWidthSweep(b *testing.B) {
	for _, name := range []string{"irs5378", "irs13207"} {
		sc, ok := gen.SuiteByName(name)
		if !ok {
			b.Fatalf("suite circuit %s missing", name)
		}
		c := sc.Build()
		fl := fault.CollapsedUniverse(c)
		ps := logic.RandomPatterns(c.NumInputs(), 1024, prng.New(sc.Seed))
		for _, mode := range []Options{{Mode: Drop}, {Mode: NoDrop}} {
			for _, width := range []int{64, 256, 512} {
				opts, w := mode, width
				b.Run(name+"/"+opts.Mode.String()+"/bw"+strconv.Itoa(w), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						RunParallelWith(fl, ps, ParallelOptions{Options: opts, Workers: 8, BlockWidth: w})
					}
				})
			}
		}
	}
}
