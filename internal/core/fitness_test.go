package core

import (
	"fmt"
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

// TestCandidateMemo pins the search's fitness memo under concurrency: eight
// goroutines evaluating the same four inputs (each several times, in
// different orders) make exactly four profiled runs, and every caller gets
// its input's serial (fitness, dyn).
func TestCandidateMemo(t *testing.T) {
	b := prog.Build("pathfinder")
	scores := make([]float64, b.Prog.NumInstrs())
	rng := xrand.New(5)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	fe := NewFitnessEval(b, scores)
	inputs := make([][]float64, 4)
	want := make([]candidateRun, len(inputs))
	var wantDyn int64
	for i := range inputs {
		inputs[i] = b.RandomInputScaled(rng, 0.2)
		want[i].fitness, want[i].dyn = fe.Eval(inputs[i])
		wantDyn += want[i].dyn
	}

	m := &candidateMemo{b: b, fe: fe}
	var wg sync.WaitGroup
	errs := make(chan string, 8*3*len(inputs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3*len(inputs); k++ {
				i := (w + k) % len(inputs)
				// A fresh copy: the key is the encoded words, not the slice.
				in := append([]float64(nil), inputs[i]...)
				if f, dyn := m.eval(in); f != want[i].fitness || dyn != want[i].dyn {
					errs <- fmt.Sprintf("worker %d input %d: (%v, %d), serial (%v, %d)",
						w, i, f, dyn, want[i].fitness, want[i].dyn)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := m.executions(); got != len(inputs) {
		t.Errorf("%d profiled runs for %d distinct inputs", got, len(inputs))
	}
	if got := m.executedDyn.Load(); got != wantDyn {
		t.Errorf("executed dyn %d, want %d (one run per distinct input)", got, wantDyn)
	}
}

// TestSearchCandidateMemoSaves checks that a GA search of realistic length
// repeats inputs, and that the memo turns those repeats into savings: fewer
// profiled runs than charged evaluations, and less executed than charged
// dyn.
func TestSearchCandidateMemoSaves(t *testing.T) {
	b := prog.Build("pathfinder")
	opts := DefaultOptions()
	opts.Generations = 20
	opts.TrialsPerRep = 4
	opts.FinalTrials = 50
	res, err := Search(b, opts, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions <= 0 || res.Executions >= res.Evaluations {
		t.Errorf("executions %d, evaluations %d: want 0 < executions < evaluations",
			res.Executions, res.Evaluations)
	}
	if c := res.Cost; c.SearchExecutedDyn <= 0 || c.SearchExecutedDyn >= c.SearchDyn {
		t.Errorf("executed dyn %d, charged dyn %d: want 0 < executed < charged",
			c.SearchExecutedDyn, c.SearchDyn)
	}
}
