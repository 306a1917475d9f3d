package campaign

import (
	"context"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/parallel"
	"repro/internal/xrand"
)

// The paper notes (§5.2) that both PEPPA-X and the baseline parallelize
// trivially — FI trials are independent — but reports unparallelized
// numbers for fairness. This file provides the parallel campaign runner for
// practical use, built on the repository-wide deterministic worker pool
// (internal/parallel). Determinism is preserved by deriving each trial's
// RNG from (seed, trial index) rather than sharing a stream, so results are
// independent of scheduling and worker count.

// ParallelOptions configures a parallel campaign.
type ParallelOptions struct {
	// Workers is the goroutine count (<= 0: GOMAXPROCS).
	Workers int
	// Seed derives each trial's private RNG stream.
	Seed uint64
	// Detector optionally models protection (see OverallProtected).
	Detector func(staticID int) bool
	// Deprecated: ignored. Every trial runs on a worker's reused
	// interp.Injector; the field stays so existing callers still compile.
	BatchSize int
	// Ctx, when non-nil, cancels the campaign cooperatively: trials stop at
	// the next trial boundary after cancellation and the runner returns the
	// tally of the trials that completed. Completed trials keep their exact
	// deterministic outcomes — cancellation only truncates, never perturbs.
	// Nil (or context.Background) adds one nil check per trial.
	Ctx context.Context
	// Model selects the fault model whole-program trials sample from. Nil is
	// the single-bit-flip default, byte-identical to the historical
	// hardcoded path. Per-instruction campaigns ignore it (they target
	// specific static instructions with the paper's single-flip model).
	Model fault.Model
}

// samplePlan draws one whole-program plan from a trial's private stream
// under the selected model (nil: the single-bit-flip default, whose draws
// are bit-identical to fault.SampleDynamic).
func samplePlan(m fault.Model, rng *xrand.RNG, totalDyn int64) fault.Plan {
	if m == nil {
		return fault.SampleDynamic(rng, totalDyn)
	}
	return m.Sample(rng, totalDyn)
}

// trialRNG derives the deterministic per-trial stream.
func trialRNG(seed uint64, trial int) *xrand.RNG {
	return xrand.New(seed ^ (uint64(trial)+1)*0x9E3779B97F4A7C15)
}

// trialOutcome is one trial's classification and cost. ok distinguishes a
// trial that actually ran from one skipped by cancellation — the zero value
// would otherwise tally as a Benign trial of zero cost.
type trialOutcome struct {
	o   Outcome
	dyn int64
	ok  bool
}

// OverallParallel measures the whole-program SDC probability like Overall,
// fanning trials across workers. Each trial's randomness depends only on
// (Seed, trial index), and trials are folded in index order, so for a fixed
// (Seed, trials) configuration the result is identical regardless of
// Workers — including the serial Workers=1 schedule. It is OverallShard over
// the whole index range [0, trials).
func OverallParallel(p *interp.Program, g *Golden, trials int, opts ParallelOptions) Counts {
	return OverallShard(p, g, 0, trials, opts)
}

// foldOutcomes tallies completed trials in index order, skipping the ones
// cancellation left unrun.
func foldOutcomes(outcomes []trialOutcome) Counts {
	var c Counts
	for _, t := range outcomes {
		if !t.ok {
			continue
		}
		c.Add(t.o)
		c.DynInstrs += t.dyn
	}
	return c
}

// PerInstructionParallel is the parallel form of PerInstruction: the
// instruction list is distributed across workers, each instruction's trials
// seeded by its ID so the results match any worker count.
func PerInstructionParallel(p *interp.Program, g *Golden, ids []int, trialsPerInstr int, opts ParallelOptions) []InstrResult {
	out := make([]InstrResult, len(ids))
	parallel.ForEachWorker(opts.Workers, len(ids), func() *interp.Injector { return newInjector(p, g) }, func(inj *interp.Injector, k int) {
		id := ids[k]
		res := &out[k]
		res.ID = id
		execCount := g.InstrCounts[id]
		if execCount <= 0 {
			return
		}
		ty := p.InstrType(id)
		rng := trialRNG(opts.Seed, id)
		for t := 0; t < trialsPerInstr; t++ {
			if ctxCanceled(opts.Ctx) {
				break
			}
			plan := fault.SampleStatic(rng, id, ty, execCount)
			o, _, dyn := classify(inj, g, &plan, rng, nil)
			res.Counts.Add(o)
			res.Counts.DynInstrs += dyn
		}
	})
	return out
}

// TrialResult is one classified FI trial: its outcome and the dynamic
// instructions the faulty run spent. Skipped marks a trial cancellation
// left unrun — its Outcome and Dyn are meaningless and must not be folded.
type TrialResult struct {
	Outcome Outcome
	Dyn     int64
	Skipped bool
}

// RunPlans classifies one trial per pre-sampled plan against the golden and
// returns the results in plan order. rngFor supplies trial i's private RNG
// (used for any fault bits a plan left pending); each trial must get a
// stream derived only from its index, never one shared across trials.
// Results depend only on (plans, rngFor), not on opts.Workers, so callers
// composing measurements from RunPlans inherit the repository's
// bit-identity contract. opts.Seed is ignored — the plans and rngFor
// already carry all randomness.
func RunPlans(p *interp.Program, g *Golden, plans []fault.Plan, rngFor func(i int) *xrand.RNG, opts ParallelOptions) []TrialResult {
	outs := make([]trialOutcome, len(plans))
	parallel.ForEachWorker(opts.Workers, len(plans), func() *interp.Injector { return newInjector(p, g) }, func(inj *interp.Injector, i int) {
		if ctxCanceled(opts.Ctx) {
			return
		}
		o, _, dyn := classify(inj, g, &plans[i], rngFor(i), opts.Detector)
		outs[i] = trialOutcome{o: o, dyn: dyn, ok: true}
	})
	res := make([]TrialResult, len(outs))
	for i, t := range outs {
		res[i] = TrialResult{Outcome: t.o, Dyn: t.dyn, Skipped: !t.ok}
	}
	return res
}
