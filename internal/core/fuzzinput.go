package core

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// smallInputFuzzSeeds is the initial corpus size of the rare-branch-guided
// small-input search. Seeds are drawn at stepped range-widening fractions,
// mirroring the naive fuzzer's first rounds.
const smallInputFuzzSeeds = 4

// FindSmallFIInputFuzz is the rare-branch-guided variant of FindSmallFIInput
// (§4.2.1 via FairFuzz, PAPERS.md): instead of drawing candidates blindly
// from widening ranges, it keeps a corpus of valid candidates with their
// block/edge hit counters, steers mutation toward the reference-covered edge
// the corpus reaches least often, and freezes input positions whose mutation
// loses that edge. The evaluation budget equals the naive fuzzer's
// (smallInputRounds × smallInputTriesPerRound), so Attempts are directly
// comparable; on most benchmarks the guided search reaches the coverage
// target in fewer attempts. Candidate runs reuse one fast-path Profiler.
func FindSmallFIInputFuzz(b *prog.Benchmark, targetFrac float64, rng *xrand.RNG) (*SmallInputResult, error) {
	if targetFrac <= 0 {
		targetFrac = DefaultCoverageTargetFrac
	}
	start := time.Now()

	prof := interp.NewProfiler(b.Prog)
	var args []uint64

	args = b.EncodeInto(args[:0], b.RefInput())
	refRun := prof.Run(args, b.MaxDyn)
	refGolden, err := campaign.GoldenFromProfile(refRun, args, b.MaxDyn)
	if err != nil {
		return nil, fmt.Errorf("core: reference input of %s is invalid: %w", b.Name, err)
	}
	// The rarity map deliberately tracks every counter, not just the
	// reference-covered ones: on benchmarks whose reference input sits in a
	// low-coverage regime, the edges worth chasing are exactly the ones the
	// reference never reaches, and restricting the universe to its path
	// would make every corpus entry's coverage set identical — collapsing
	// rarity-guided seed selection into picking the first seed forever.

	res := &SmallInputResult{
		TargetCoverage: targetFrac * refGolden.Coverage(),
		RefCoverage:    refGolden.Coverage(),
		RefDynCount:    refGolden.DynCount,
	}
	res.DynSpent += refGolden.DynCount

	var bestInput []float64
	var bestGolden *campaign.Golden
	bestCov := -1.0
	var ctrs []int64

	exec := func(in []float64) (float64, []int64, bool) {
		res.Attempts++
		args = b.EncodeInto(args[:0], in)
		r := prof.Run(args, b.MaxDyn)
		if r.Failed() {
			return 0, nil, false // invalid input; §3.1.2 excludes it
		}
		res.DynSpent += r.DynCount
		cov := r.Coverage()
		ctrs = r.Counters(ctrs)
		if cov > bestCov || (cov == bestCov && bestGolden != nil && r.DynCount < bestGolden.DynCount) {
			if g, err := campaign.GoldenFromProfile(r, args, b.MaxDyn); err == nil {
				bestCov, bestGolden = cov, g
				bestInput = append(bestInput[:0], in...)
			}
		}
		return cov, ctrs, true
	}

	seeds := make([][]float64, 0, smallInputFuzzSeeds)
	for i := 0; i < smallInputFuzzSeeds; i++ {
		// Fractions 0, ⅛, ¼, ⅜ keep the corpus in small-workload territory
		// while giving the rarity map range diversity to work with.
		seeds = append(seeds, b.RandomInputScaled(rng, float64(i)/8))
	}

	_, err = fuzz.Run(fuzz.Options{
		Dim:   len(b.Args),
		Clamp: func(v []float64) { b.ClampInput(v) },
		// Re-draw the position from a freshly scaled range: rare edges often
		// need a coordinate regime change (e.g. crossing a loop-count
		// threshold) that the ±10 % local move cannot reach in one step.
		MutateAt: func(v []float64, i int, rng *xrand.RNG) {
			v[i] = b.RandomInputScaled(rng, rng.Float64())[i]
		},
		Seeds:  seeds,
		Budget: smallInputRounds * smallInputTriesPerRound,
		Target: res.TargetCoverage,
	}, exec, rng)
	if err != nil {
		return nil, err
	}
	if bestGolden == nil {
		return nil, fmt.Errorf("core: no valid small FI input found for %s", b.Name)
	}
	res.Input = bestInput
	res.Golden = bestGolden
	res.Coverage = bestCov
	res.Elapsed = time.Since(start)
	return res, nil
}
