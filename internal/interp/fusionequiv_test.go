package interp_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// The benchmark-level half of the fast-path equivalence gate: for every
// program benchmark, the profiled Run and the block-counting Profiler must
// reproduce the reference interpreter bit for bit — outputs, return value,
// dynamic count, trap/budget state, per-instruction counts — on the
// reference input, on random scaled inputs, and under budget cutoffs that
// abort the run mid-flight. Fitness must match the per-instruction ground
// truth to tolerance.
func TestProfileEquivBenchmarks(t *testing.T) {
	rng := xrand.New(99)
	for _, name := range prog.Names() {
		b := prog.Build(name)
		scores := make([]float64, b.Prog.NumInstrs())
		for i := range scores {
			scores[i] = rng.Float64()
		}
		cs := b.Prog.CounterScores(scores)
		pr := interp.NewProfiler(b.Prog)

		inputs := [][]uint64{b.Encode(b.RefInput())}
		for k := 0; k < 2; k++ {
			inputs = append(inputs, b.Encode(b.RandomInputScaled(rng, 0.3)))
		}
		for ii, in := range inputs {
			full := interp.RefRun(b.Prog, in, interp.Options{MaxDyn: b.MaxDyn})
			d := full.DynCount
			cutoffs := []int64{b.MaxDyn, d / 2, d - 1, d}
			if testing.Short() && ii > 0 {
				cutoffs = []int64{b.MaxDyn}
			}
			for _, cut := range cutoffs {
				if cut <= 0 {
					continue
				}
				label := fmt.Sprintf("%s/in%d/cut%d", name, ii, cut)
				want := interp.RefRun(b.Prog, in, interp.Options{MaxDyn: cut})
				interp.CheckRef(t, label+"/run", interp.Run(b.Prog, in, interp.Options{Profile: true, MaxDyn: cut}), want)
				r := pr.Run(in, cut)
				interp.CheckProfileRef(t, label+"/profiler", r, want)
				fit := r.Fitness(cs)
				if r.Failed() {
					if fit != 0 {
						t.Fatalf("%s: failed run fitness %v", label, fit)
					}
					continue
				}
				var acc float64
				for id, c := range want.Counts {
					acc += scores[id] * float64(c)
				}
				refFit := acc / float64(want.DynCount)
				if diff := math.Abs(fit - refFit); diff > 1e-9*math.Max(1, math.Abs(refFit)) {
					t.Fatalf("%s: fitness %v too far from per-instruction ground truth %v", label, fit, refFit)
				}
			}
		}
	}
}
