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
	// BatchSize groups trials that resume from the same checkpoint into
	// lockstep interp.BatchRun executions of at most this size, sharing one
	// trunk replay per batch (<= 1 keeps the per-trial path). Trial plans
	// and RNG streams are derived exactly as on the per-trial path, so
	// results are bit-identical at every batch size and worker count.
	BatchSize int
	// Ctx, when non-nil, cancels the campaign cooperatively: trials stop at
	// the next trial (or checkpoint) boundary after cancellation and the
	// runner returns the tally of the trials that completed. Completed
	// trials keep their exact deterministic outcomes — cancellation only
	// truncates, never perturbs. Nil (or context.Background) adds one nil
	// check per trial.
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
// Workers — including the serial Workers=1 schedule.
func OverallParallel(p *interp.Program, g *Golden, trials int, opts ParallelOptions) Counts {
	if opts.BatchSize > 1 {
		return overallBatched(p, g, trials, opts)
	}
	outcomes := make([]trialOutcome, trials)
	parallel.ForEachWorker(opts.Workers, trials, func() *interp.Injector { return newInjector(p, g) }, func(inj *interp.Injector, i int) {
		if ctxCanceled(opts.Ctx) {
			return
		}
		rng := trialRNG(opts.Seed, i)
		plan := samplePlan(opts.Model, rng, g.DynCount)
		o, _, dyn := classify(inj, g, &plan, rng, opts.Detector)
		outcomes[i] = trialOutcome{o: o, dyn: dyn, ok: true}
	})
	return foldOutcomes(outcomes)
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
// seeded by its ID so the results match any worker count. With
// opts.BatchSize > 1 each instruction's trials run in lockstep batches;
// plans are pre-sampled from the same per-ID stream in the same order (and
// static plans draw their fault bits eagerly, never at injection), so the
// batched counts are bit-identical to the per-trial ones.
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
		if opts.BatchSize > 1 {
			plans := make([]fault.Plan, trialsPerInstr)
			for t := range plans {
				plans[t] = fault.SampleStatic(rng, id, ty, execCount)
			}
			outs := make([]trialOutcome, trialsPerInstr)
			// workers=1: instruction-level fan-out already occupies the
			// pool; nesting another ForEach would oversubscribe it.
			runBatchJobs(p, g, plans, func(int) *xrand.RNG { return rng }, opts.BatchSize, 1, nil, ctxDone(opts.Ctx), outs)
			res.Counts = foldOutcomes(outs)
			return
		}
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

// overallBatched is OverallParallel's lockstep path. Plans and per-trial
// RNGs are derived exactly as on the per-trial path (SampleDynamic is the
// first draw on each trial's private stream; the fault-bit draw at
// injection continues the same stream inside BatchRun), trials are grouped
// by the snapshot ForPlan selects, and batches fan out across workers while
// outcomes fold in trial-index order — so the counts are bit-identical for
// every batch size and worker count.
func overallBatched(p *interp.Program, g *Golden, trials int, opts ParallelOptions) Counts {
	plans := make([]fault.Plan, trials)
	rngs := make([]*xrand.RNG, trials)
	for i := range plans {
		rngs[i] = trialRNG(opts.Seed, i)
		plans[i] = samplePlan(opts.Model, rngs[i], g.DynCount)
	}
	outcomes := make([]trialOutcome, trials)
	runBatchJobs(p, g, plans, func(i int) *xrand.RNG { return rngs[i] }, opts.BatchSize, opts.Workers, opts.Detector, ctxDone(opts.Ctx), outcomes)
	return foldOutcomes(outcomes)
}

// runBatchJobs executes the planned trials in lockstep batches, fanning the
// batches across workers, and writes each trial's classified outcome into
// outs[i]. rngFor supplies the RNG a trial injects with; batch telemetry
// accumulates into g.Checkpoints (atomic, nil-safe). When done closes,
// in-flight batches stop at their next boundary and unstarted trials leave
// their outs entries with ok=false.
func runBatchJobs(p *interp.Program, g *Golden, plans []fault.Plan, rngFor func(i int) *xrand.RNG, size, workers int, detector func(staticID int) bool, done <-chan struct{}, outs []trialOutcome) {
	jobs := batchJobs(g, plans, size)
	budget := g.DynCount*hangBudgetMultiplier + hangBudgetSlack
	parallel.ForEach(workers, len(jobs), func(j int) {
		if doneClosed(done) {
			return
		}
		job := &jobs[j]
		bt := make([]interp.BatchTrial, len(job.idx))
		for k, i := range job.idx {
			bt[k] = interp.BatchTrial{Plan: plans[i], RNG: rngFor(i)}
		}
		st := interp.BatchRun(p, g.Input, job.snap, bt, interp.Options{MaxDyn: budget, Done: done}, func(k int, r *interp.Result) {
			o, _ := classifyResult(g, r, detector)
			outs[job.idx[k]] = trialOutcome{o: o, dyn: r.DynCount, ok: true}
		})
		g.Checkpoints.NoteBatch(st)
	})
}

// doneClosed mirrors interp's Done polling for the job dispatcher.
func doneClosed(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
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
// stream derived only from its index, never one shared across trials. With
// opts.BatchSize > 1, trials sharing a checkpoint run in lockstep batches;
// either way results depend only on (plans, rngFor), not on opts.Workers or
// opts.BatchSize, so callers composing measurements from RunPlans inherit
// the repository's bit-identity contract. opts.Seed is ignored — the plans
// and rngFor already carry all randomness.
func RunPlans(p *interp.Program, g *Golden, plans []fault.Plan, rngFor func(i int) *xrand.RNG, opts ParallelOptions) []TrialResult {
	outs := make([]trialOutcome, len(plans))
	if opts.BatchSize > 1 {
		runBatchJobs(p, g, plans, rngFor, opts.BatchSize, opts.Workers, opts.Detector, ctxDone(opts.Ctx), outs)
	} else {
		parallel.ForEachWorker(opts.Workers, len(plans), func() *interp.Injector { return newInjector(p, g) }, func(inj *interp.Injector, i int) {
			if ctxCanceled(opts.Ctx) {
				return
			}
			o, _, dyn := classify(inj, g, &plans[i], rngFor(i), opts.Detector)
			outs[i] = trialOutcome{o: o, dyn: dyn, ok: true}
		})
	}
	res := make([]TrialResult, len(outs))
	for i, t := range outs {
		res[i] = TrialResult{Outcome: t.o, Dyn: t.dyn, Skipped: !t.ok}
	}
	return res
}

// batchJob is one BatchRun dispatch: trial indices sharing a base snapshot.
type batchJob struct {
	snap *interp.Snapshot
	idx  []int
}

// batchJobs groups trial indices by the snapshot each plan resumes from,
// preserving index order within a group, then chunks groups to at most size
// trials (the final chunk of a group may be smaller). The grouping is a
// pure function of the plans and the golden's snapshots, so the job list —
// and with it every fork point — is deterministic.
func batchJobs(g *Golden, plans []fault.Plan, size int) []batchJob {
	groups := make(map[*interp.Snapshot]int)
	var jobs []batchJob
	for i := range plans {
		s := g.Checkpoints.ForPlan(&plans[i])
		j, ok := groups[s]
		if !ok || len(jobs[j].idx) >= size {
			jobs = append(jobs, batchJob{snap: s})
			j = len(jobs) - 1
			groups[s] = j
		}
		jobs[j].idx = append(jobs[j].idx, i)
	}
	return jobs
}
