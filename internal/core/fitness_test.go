package core

import (
	"sync"
	"testing"

	"repro/internal/prog"
	"repro/internal/xrand"
)

// TestFitnessEvalSteadyState pins the evaluator's reuse contract: after a
// warm-up, Eval allocates nothing, and concurrent evaluations — each on a
// context borrowed from the free list — score every candidate exactly as a
// serial loop does.
func TestFitnessEvalSteadyState(t *testing.T) {
	b := prog.Build("pathfinder")
	scores := make([]float64, b.Prog.NumInstrs())
	rng := xrand.New(3)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	fe := NewFitnessEval(b, scores)
	inputs := make([][]float64, 16)
	want := make([]float64, len(inputs))
	for i := range inputs {
		inputs[i] = b.RandomInput(rng)
		want[i], _ = fe.Eval(inputs[i])
	}
	if allocs := testing.AllocsPerRun(20, func() { fe.Eval(inputs[0]) }); allocs != 0 {
		t.Fatalf("steady-state Eval allocates %v times per call", allocs)
	}

	var wg sync.WaitGroup
	got := make([][]float64, 4)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]float64, len(inputs))
			for i, in := range inputs {
				got[w][i], _ = fe.Eval(in)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		for i := range inputs {
			if got[w][i] != want[i] {
				t.Fatalf("worker %d input %d: fitness %v, serial %v", w, i, got[w][i], want[i])
			}
		}
	}
	if n := len(fe.free); n < 1 || n > len(got) {
		t.Fatalf("free list holds %d contexts after %d concurrent evaluators", n, len(got))
	}
}
