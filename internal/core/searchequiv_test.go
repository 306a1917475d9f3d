package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/interp/interptest"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// TestSearchProfileEquiv is the pipeline-level half of the fast-path
// equivalence gate: the full PEPPA-X search must produce bit-identical
// results — best input and fitness, fitness/cost histories, evaluation
// counts, and the closing FI campaign — for serial and parallel candidate
// evaluation alike, and the reported best fitness must match the §4.2.5
// fitness recomputed from the reference interpreter's per-instruction
// counts of the best input.
func TestSearchProfileEquiv(t *testing.T) {
	names := prog.Names()
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			opts := DefaultOptions()
			opts.Generations = 3
			opts.PopSize = 4
			opts.TrialsPerRep = 4
			opts.FinalTrials = 30
			opts.Checkpoints = []int{2}

			var want *Result
			for _, w := range []int{1, 4} {
				opts.Workers = w
				r, err := Search(b, opts, xrand.New(2026))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				normalizeResult(r)
				if want == nil {
					want = r
					continue
				}
				if !reflect.DeepEqual(r, want) {
					t.Errorf("workers=%d diverged from workers=1:\n got best %v fitness %v SDC %v evals %d\nwant best %v fitness %v SDC %v evals %d",
						w, r.BestInput, r.BestFitness, r.SDCBound(), r.Evaluations,
						want.BestInput, want.BestFitness, want.SDCBound(), want.Evaluations)
				}
			}

			ref := interptest.Run(b.Prog.Mod, b.Encode(want.BestInput), interptest.Options{MaxDyn: b.MaxDyn})
			if ref.Trap != "" || ref.BudgetExceeded || ref.DetectedFlag || ref.DynCount == 0 {
				t.Fatalf("best input %v fails on the reference interpreter: %+v", want.BestInput, ref)
			}
			var acc float64
			for id, c := range ref.Counts {
				acc += want.Distribution.Scores[id] * float64(c)
			}
			refFit := acc / float64(ref.DynCount)
			if diff := math.Abs(want.BestFitness - refFit); diff > 1e-9*math.Max(1, math.Abs(refFit)) {
				t.Errorf("best fitness %v, reference fitness %v", want.BestFitness, refFit)
			}
		})
	}
}
