package core

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/xrand"
)

// fuzzPanel lists the benchmarks whose static coverage actually varies with
// the input (the other kernels are coverage-invariant: every valid input
// covers the same blocks, so any fuzzer trivially ties). frac expresses the
// acceptance target — 0.95 × the benchmark's maximum achievable coverage —
// as a fraction of the reference input's coverage, which is what the
// small-input searchers take as their targetFrac parameter. The coverage
// constants are properties of the frozen kernels, measured over 20 000
// random draws across the full input space.
var fuzzPanel = []struct {
	bench string
	frac  float64
}{
	{"pathfinder", 0.95 * 1.0000 / 0.8022},
	{"particlefilter", 0.95 * 0.9749 / 0.7387},
	{"stencil", 0.95 * 1.0000 / 0.7759},
	{"spmv", 0.95 * 1.0000 / 0.7400},
	{"nbody", 0.95 * 1.0000 / 0.7589},
	{"hpccg", 0.95 * 1.0000 / 0.9337},
}

// TestFuzzBeatsNaiveCoverageParity is the acceptance gate for the
// rare-branch-guided fuzzer: at a fixed RNG seed, FindSmallFIInputFuzz must
// reach the 0.95×max coverage target in strictly fewer candidate evaluations
// than the naive widening-range fuzzer on at least five benchmarks of the
// panel. A run that exhausts its budget without reaching the target counts
// as the budget's worst case, so "guided hits, naive misses" is a win.
func TestFuzzBeatsNaiveCoverageParity(t *testing.T) {
	const seed = 7
	const missPenalty = 1000 // attempts charged when the target is not reached
	wins := 0
	for _, c := range fuzzPanel {
		b := prog.Build(c.bench)
		n, err := FindSmallFIInput(b, c.frac, xrand.New(seed))
		if err != nil {
			t.Fatalf("naive %s: %v", c.bench, err)
		}
		f, err := FindSmallFIInputFuzz(b, c.frac, xrand.New(seed))
		if err != nil {
			t.Fatalf("fuzz %s: %v", c.bench, err)
		}
		nAtt, fAtt := n.Attempts, f.Attempts
		if n.Coverage < n.TargetCoverage {
			nAtt = missPenalty
		}
		if f.Coverage < f.TargetCoverage {
			fAtt = missPenalty
		}
		if fAtt < nAtt {
			wins++
		}
		t.Logf("%s: naive att=%d cov=%.4f | fuzz att=%d cov=%.4f (target %.4f)",
			c.bench, nAtt, n.Coverage, fAtt, f.Coverage, f.TargetCoverage)
	}
	if wins < 5 {
		t.Fatalf("guided fuzzer beat the naive fuzzer on %d benchmarks, want >= 5", wins)
	}
}

// TestFuzzInputDeterministic pins the guided search to its inputs: equal
// seeds must reproduce the identical result, and different seeds must not
// share evaluation history by accident (the pooled profiler is reused).
func TestFuzzInputDeterministic(t *testing.T) {
	b := prog.Build("stencil")
	frac := 0.95 * 1.0000 / 0.7759
	a, err := FindSmallFIInputFuzz(b, frac, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	c, err := FindSmallFIInputFuzz(b, frac, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Attempts != c.Attempts || a.Coverage != c.Coverage || len(a.Input) != len(c.Input) {
		t.Fatalf("same seed diverged: %+v vs %+v", a, c)
	}
	for i := range a.Input {
		if a.Input[i] != c.Input[i] {
			t.Fatalf("same seed diverged at input[%d]: %v vs %v", i, a.Input, c.Input)
		}
	}
}
