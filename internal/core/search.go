package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/fault"
	"repro/internal/ga"
	"repro/internal/interp"
	"repro/internal/parallel"
	"repro/internal/prog"
	"repro/internal/sensitivity"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Options parameterizes a PEPPA-X search.
type Options struct {
	// Generations is the GA budget (the x-axis of Figure 5).
	Generations int
	// PopSize is the GA population size.
	PopSize int
	// MutationRate and CrossoverRate follow §4.2.4 (0.4 and 0.05).
	MutationRate  float64
	CrossoverRate float64
	// TrialsPerRep is the FI trial count per pruning representative in the
	// sensitivity derivation (§4.2.3 uses 30).
	TrialsPerRep int
	// FinalTrials is the statistical FI campaign size for the reported
	// SDC-bound input (the paper uses 1000).
	FinalTrials int
	// CoverageTargetFrac configures the small-input fuzzer.
	CoverageTargetFrac float64
	// Checkpoints lists generation counts at which the current best input
	// is FI-evaluated (to draw Figure 5). Checkpoint FI cost is reporting
	// cost and is excluded from the search budget.
	Checkpoints []int
	// DisablePruning turns off the §4.2.2 heuristic (Table 5's "without
	// heuristics" configuration).
	DisablePruning bool
	// UseSmallInput selects the step-① small FI input for the sensitivity
	// derivation; when false the reference input is used (the other half
	// of Table 5's "without heuristics" cost).
	UseSmallInput bool
	// Workers fans each generation's candidate evaluations across
	// goroutines (0 = GOMAXPROCS, 1 = serial). Candidate evaluation is
	// RNG-free (one profiled execution), and breeding, checkpointing and
	// the closing FI campaign always consume the search RNG serially, so
	// the result is bit-identical for every worker count.
	Workers int
	// BatchSize > 0 routes the pipeline's whole-program FI campaigns
	// (Figure 5 checkpoints and the closing measurement) through the
	// lockstep batch executor: trials grouped by nearest golden snapshot
	// run interp.BatchRun batches of at most this size, sharing one trunk
	// replay per batch. Batched campaigns derive per-trial RNG streams from
	// one seed drawn off the search RNG instead of classifying on the
	// shared serial stream, so enabling batching changes which plans a
	// given seed produces — but the batched tallies themselves are
	// bit-identical for every batch size and worker count. 0 keeps the
	// serial shared-stream campaign.
	BatchSize int
	// CheckpointInterval controls golden-prefix snapshotting for the
	// pipeline's FI campaigns (sensitivity, Figure 5 checkpoints, final):
	// campaign.CheckpointAuto (0) tunes the spacing from each golden's
	// dynamic count, a positive value fixes the spacing in dynamic
	// instructions, and campaign.CheckpointDisabled (-1) runs every trial
	// from scratch. Trial results are bit-identical in all three modes.
	CheckpointInterval int64
	// Trace, when non-nil, receives the search's telemetry: phase events
	// for the Figure 8 sensitivity-vs-search cost split (small_input,
	// sensitivity, search, final_fi), per-generation GA and cost events,
	// checkpoint measurements and the closing FI tally. The stream's cost
	// clock advances with the pipeline's dynamic-instruction spend, so the
	// trace is byte-identical for every worker count.
	Trace *telemetry.Stream
	// HeatTopK sizes the per-instruction heat events emitted alongside each
	// traced checkpoint and the final measurement: the top-k static
	// instructions by sensitivity score × dynamic-execution fraction, the
	// live Figure 2-style heat map (0 = telemetry.DefaultHeatTopK, negative
	// disables heat events). Heat is schedule-independent with ties broken
	// by instruction id, so traces stay byte-identical across worker
	// counts; the running top-k also mirrors into heat.instr gauges for the
	// /metrics endpoint.
	HeatTopK int
	// CITarget > 0 switches the closing FI campaign to the adaptive
	// stratified runner (campaign.OverallAdaptive): strata are heat-ranked by
	// the §4.2.3 sensitivity scores, trials are allocated by estimated
	// variance, and the campaign stops once the composed 95% Wilson
	// half-width falls below this target — trial count becomes an accuracy
	// knob instead of a constant. The measured bound is then
	// Result.FinalAdaptive's composed estimate with honest bounds. Figure 5
	// checkpoint measurements keep the flat FinalTrials campaign, so curves
	// remain comparable across generations.
	CITarget float64
	// MinTrialsPerStratum seeds each adaptive stratum before allocation
	// (<= 0: campaign.DefaultMinTrialsPerStratum). Adaptive only.
	MinTrialsPerStratum int
	// MaxTrials caps the adaptive campaign's total spend (<= 0:
	// FinalTrials, so an adaptive run never costs more than the flat
	// campaign it replaces). Adaptive only.
	MaxTrials int
	// Compose switches the sensitivity derivation and the Figure 5
	// checkpoint measurements to the compositional estimator
	// (internal/compose): per-segment SDC profiles are measured once on
	// the first golden that executes them, cached, re-measured only when a
	// segment's dynamic mix drifts past ComposeThreshold, and composed
	// under each input's execution mix — so repeat measurements across
	// generations cost almost nothing. The closing campaign stays a direct
	// measurement (flat or adaptive), so the reported bound never rests on
	// a composed approximation. Enabling compose draws one extra seed off
	// the search RNG and replaces checkpoint campaigns, so it changes
	// sampled plans versus a non-compose run; composed results themselves
	// are bit-identical for every Workers/BatchSize.
	Compose bool
	// ComposeThreshold is the profile re-measurement trigger
	// (0: compose.DefaultThreshold; < 0: never re-measure).
	ComposeThreshold float64
	// ComposeTrials is the total trial budget of a full profile
	// measurement pass (<= 0: compose.DefaultTrials).
	ComposeTrials int
	// ComposeCache, when non-nil, shares profiles across searches of the
	// same program (nil: a private cache per search).
	ComposeCache *compose.Cache
	// Ctx, when non-nil, cancels the pipeline cooperatively: the GA loop
	// stops before its next generation, FI campaigns stop at their next
	// trial boundary, and Search returns the best input found so far with
	// whatever final measurement completed. The RNG draws consumed before
	// the cancellation point are unchanged, so an uncanceled run is
	// bit-identical whether or not a context is supplied.
	Ctx context.Context
	// Model selects the fault model of the pipeline's whole-program FI
	// campaigns (Figure 5 checkpoints and the closing measurement). Nil is
	// the single-bit-flip default, byte-identical to the historical path.
	// The sensitivity derivation and GA fitness stay single-flip — they are
	// search heuristics, not the reported bound — and the adaptive closing
	// campaign (CITarget > 0) supports only the default model.
	Model fault.Model
}

// canceled reports whether the pipeline's context is canceled (nil-safe).
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

// adaptiveMaxTrials resolves the adaptive trial cap against the flat
// campaign size.
func (o Options) adaptiveMaxTrials() int {
	if o.MaxTrials > 0 {
		return o.MaxTrials
	}
	return o.FinalTrials
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Generations:        200,
		PopSize:            ga.DefaultPopulation,
		MutationRate:       ga.DefaultMutationRate,
		CrossoverRate:      ga.DefaultCrossoverRate,
		TrialsPerRep:       sensitivity.DefaultTrialsPerRepresentative,
		FinalTrials:        1000,
		CoverageTargetFrac: DefaultCoverageTargetFrac,
		UseSmallInput:      true,
	}
}

// Checkpoint is the FI-measured state of the search at a generation budget.
type Checkpoint struct {
	Generation int
	BestInput  []float64
	Fitness    float64
	Counts     campaign.Counts
	// Composed, under Options.Compose, is the compositional estimate that
	// replaced the checkpoint campaign; Counts then holds its pooled
	// profile trials (allocation-weighted — use SDCEstimate for the rate).
	Composed *compose.Estimate
}

// SDCEstimate returns the checkpoint's SDC rate: the composed estimate
// when the checkpoint was measured compositionally, else the campaign
// ratio.
func (cp *Checkpoint) SDCEstimate() float64 {
	if cp.Composed != nil {
		return cp.Composed.SDC
	}
	return cp.Counts.SDCProbability()
}

// Result is the outcome of one PEPPA-X search.
type Result struct {
	Benchmark string

	// SmallInput describes the step-① result.
	SmallInput *SmallInputResult
	// Distribution is the step-③ SDC sensitivity distribution.
	Distribution *sensitivity.Distribution

	// BestInput is the reported SDC-bound input with its fitness score.
	BestInput   []float64
	BestFitness float64
	// Final is the closing statistical FI campaign on BestInput — the
	// paper's reported program SDC probability bound. Under an adaptive
	// campaign (Options.CITarget > 0) Final holds the pooled per-stratum
	// tally, whose raw ratio is allocation-weighted; the honest bound is
	// FinalAdaptive's composed estimate, which SDCBound reports.
	Final campaign.Counts
	// FinalAdaptive is the adaptive campaign's full result (stratum tallies,
	// composed estimate and honest interval); nil when the closing campaign
	// ran flat.
	FinalAdaptive *campaign.AdaptiveResult

	// Checkpoints are the Figure 5 measurements, ordered by generation.
	Checkpoints []Checkpoint
	// FitnessHistory records the best fitness after each generation.
	FitnessHistory []float64
	// SearchDynHistory records the cumulative charged GA-search
	// dynamic-instruction cost after each generation — the basis for giving
	// the baseline an equal budget at any generation cut-off (Figures 5, 7,
	// 8).
	SearchDynHistory []int64
	// Evaluations counts the GA's candidate evaluations, each charged one
	// profiled run (Cost.SearchDyn). Repeated inputs are answered from the
	// search's fitness memo, so it is not a count of executions.
	Evaluations int
	// Executions counts the profiled runs the GA actually made: one per
	// distinct candidate input (Cost.SearchExecutedDyn).
	Executions int
	// ComposeStats, under Options.Compose, records the profile cache's
	// effectiveness over the whole search (hits, misses, re-measurements,
	// measurement spend); nil otherwise.
	ComposeStats *compose.Stats

	Cost Cost
}

// SDCBound returns the SDC probability measured for the reported input: the
// flat campaign's trial ratio, or the adaptive campaign's composed
// stratified estimate (the pooled ratio would be allocation-biased).
func (r *Result) SDCBound() float64 {
	if r.FinalAdaptive != nil {
		return r.FinalAdaptive.Estimate
	}
	return r.Final.SDCProbability()
}

// SDCInterval returns the true 95% bounds of the measured SDC probability:
// Wilson bounds for a flat campaign, the composed stratified interval for
// an adaptive one.
func (r *Result) SDCInterval() (lo, hi float64) {
	if r.FinalAdaptive != nil {
		return r.FinalAdaptive.Lo, r.FinalAdaptive.Hi
	}
	return r.Final.SDCInterval()
}

// PipelineDynAt returns the total pipeline cost, in dynamic instructions,
// had the search been stopped at the given generation: the fixed small-input
// and sensitivity costs, the GA cost up to that generation, and the closing
// FI campaign. This is the equal budget handed to the baseline for the
// Figure 5 comparison.
func (r *Result) PipelineDynAt(gen int) int64 {
	fixed := r.Cost.SmallInputDyn + r.Cost.SensitivityDyn + r.Cost.FinalFIDyn
	if gen <= 0 || len(r.SearchDynHistory) == 0 {
		return fixed
	}
	if gen > len(r.SearchDynHistory) {
		gen = len(r.SearchDynHistory)
	}
	return fixed + r.SearchDynHistory[gen-1]
}

// Search runs the full PEPPA-X pipeline on a benchmark.
func Search(b *prog.Benchmark, opts Options, rng *xrand.RNG) (*Result, error) {
	if opts.Generations <= 0 {
		return nil, fmt.Errorf("core: Generations must be positive")
	}
	if opts.FinalTrials <= 0 {
		opts.FinalTrials = 1000
	}
	if opts.CITarget > 0 && opts.Model != nil {
		return nil, fmt.Errorf("core: the adaptive closing campaign supports only the default fault model, got %q", opts.Model.Name())
	}
	res := &Result{Benchmark: b.Name}
	tr := opts.Trace

	// Step ①: small FI input.
	t0 := time.Now()
	endPhase := tr.Phase("small_input")
	small, err := FindSmallFIInput(b, opts.CoverageTargetFrac, rng)
	if err != nil {
		return nil, err
	}
	res.SmallInput = small
	res.Cost.SmallInputTime = time.Since(t0)
	res.Cost.SmallInputDyn = small.DynSpent
	tr.Advance(small.DynSpent)
	endPhase()
	tr.Emit("search.small_input",
		telemetry.F("coverage", small.Coverage),
		telemetry.F("dyn", small.Golden.DynCount))

	// Steps ② and ③: pruned FI simulation for the sensitivity distribution.
	t0 = time.Now()
	endPhase = tr.Phase("sensitivity")
	// FI campaigns below replay a shared golden prefix per trial; golden-
	// prefix snapshots let them resume mid-run instead. The modeled
	// dynamic-instruction costs stay those of from-scratch trials (each
	// resumed trial's DynCount continues the golden clock), so budgets and
	// traces are unchanged; ckStats records the real work skipped.
	var ckStats interp.CheckpointStats
	sensGolden := small.Golden
	if !opts.UseSmallInput {
		g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, opts.CheckpointInterval)
		if err != nil {
			return nil, err
		}
		sensGolden = g
	} else if err := sensGolden.EnsureCheckpoints(b.Prog, opts.CheckpointInterval); err != nil {
		return nil, err
	}
	// Compositional mode: one estimator (and profile cache) serves the
	// sensitivity derivation and every checkpoint measurement, so profiles
	// measured on the sensitivity golden are reused — or incrementally
	// re-measured — across all later generations. The seed is drawn off the
	// search RNG only when compose is on, keeping non-compose runs
	// bit-identical to earlier versions.
	var composeEst *compose.Estimator
	if opts.Compose {
		composeEst = compose.NewEstimator(b.Prog, opts.ComposeCache, compose.Options{
			Trials:    opts.ComposeTrials,
			Threshold: opts.ComposeThreshold,
			Workers:   opts.Workers,
			BatchSize: opts.BatchSize,
			Seed:      rng.Uint64(),
			Trace:     tr,
			Ctx:       opts.Ctx,
		})
	}
	dist := sensitivity.Derive(b.Prog, sensGolden, sensitivity.Options{
		TrialsPerRep: opts.TrialsPerRep,
		UsePruning:   !opts.DisablePruning,
		Compose:      composeEst,
	}, rng)
	res.Distribution = dist
	ckStats.Accumulate(sensGolden.CheckpointStats())
	res.Cost.SensitivityTime = time.Since(t0)
	res.Cost.SensitivityDyn = dist.FIDynInstrs
	tr.Advance(dist.FIDynInstrs)
	endPhase()
	tr.Emit("search.sensitivity",
		telemetry.F("representatives", dist.Representatives),
		telemetry.F("fi_trials", dist.FITrials),
		telemetry.F("dyn", dist.FIDynInstrs))

	// Steps ④ and ⑤: genetic fuzzing with the dynamic-analysis fitness.
	t0 = time.Now()
	endPhase = tr.Phase("search")
	// Candidates of one generation are evaluated concurrently; the cost
	// accumulator is atomic and integer, so its per-generation totals are
	// independent of evaluation order. Every candidate is charged its run
	// length — the paper's one profiled run per candidate — but an input
	// the search has already run is answered from the memo, not rerun.
	var searchDyn atomic.Int64
	memo := &candidateMemo{b: b, fe: NewFitnessEval(b, dist.Scores)}
	fitness := func(g ga.Genome) float64 {
		f, dyn := memo.eval(g)
		searchDyn.Add(dyn)
		return f
	}
	// Seed with the small FI input, the reference input, and enough random
	// inputs to fill the population with distinct candidates.
	seeds := []ga.Genome{
		ga.Genome(small.Input).Clone(),
		ga.Genome(b.RefInput()),
	}
	for len(seeds) < opts.PopSize {
		seeds = append(seeds, ga.Genome(b.RandomInput(rng)))
	}
	engine, err := ga.New(ga.Config{
		PopSize:       opts.PopSize,
		MutationRate:  opts.MutationRate,
		CrossoverRate: opts.CrossoverRate,
		Clamp:         func(g ga.Genome) { b.ClampInput(g) },
		Fitness:       fitness,
		Seed:          seeds,
		Workers:       parallel.Workers(opts.Workers),
		Trace:         tr,
	}, rng.Split())
	if err != nil {
		return nil, err
	}

	checkpoints := append([]int(nil), opts.Checkpoints...)
	sort.Ints(checkpoints)
	ci := 0
	fiRNG := rng.Split() // separate stream so checkpoints don't perturb the search
	for gen := 1; gen <= opts.Generations; gen++ {
		if opts.canceled() {
			break // report the best input found so far
		}
		engine.Step()
		res.FitnessHistory = append(res.FitnessHistory, engine.Best().Fitness)
		prevDyn := int64(0)
		if len(res.SearchDynHistory) > 0 {
			prevDyn = res.SearchDynHistory[len(res.SearchDynHistory)-1]
		}
		res.SearchDynHistory = append(res.SearchDynHistory, searchDyn.Load())
		// The generation's evaluation cost is an order-independent integer
		// sum, so advancing the cost clock here keeps timestamps identical
		// for every worker count.
		tr.Advance(searchDyn.Load() - prevDyn)
		for ci < len(checkpoints) && checkpoints[ci] == gen {
			best := engine.Best()
			cp := Checkpoint{Generation: gen, BestInput: best.Genome, Fitness: best.Fitness}
			var heatG *campaign.Golden
			if g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(best.Genome), b.MaxDyn, opts.CheckpointInterval); err == nil {
				if composeEst != nil {
					// Composed checkpoint: reuse cached profiles under the
					// best input's mix instead of a fresh campaign.
					ce := composeEst.EstimateGolden(g)
					cp.Composed = ce
					cp.Counts = ce.Counts
				} else {
					cp.Counts = overallCampaign(b.Prog, g, opts.FinalTrials, fiRNG, opts)
				}
				ckStats.Accumulate(g.CheckpointStats())
				heatG = g
			}
			res.Checkpoints = append(res.Checkpoints, cp)
			// Checkpoint FI is reporting cost, excluded from the search
			// budget — so it is emitted but does not advance the clock.
			tr.Emit("search.checkpoint", append([]telemetry.Field{
				telemetry.F("gen", gen),
				telemetry.F("fitness", best.Fitness),
				telemetry.F("sdc", cp.SDCEstimate()),
			}, cp.Counts.Fields()...)...)
			// The live heat map: score-weighted dynamic-execution fractions
			// of the checkpointed best input, deterministic by construction
			// (both factors are schedule-independent, ties break by id).
			if heatG != nil && opts.HeatTopK >= 0 {
				telemetry.EmitHeat(tr, "heat.topk",
					[]telemetry.Field{telemetry.F("gen", gen)},
					dist.TopHeat(heatG.InstrCounts, heatG.DynCount, opts.HeatTopK))
			}
			ci++
		}
	}
	best := engine.Best()
	res.BestInput = best.Genome
	res.BestFitness = best.Fitness
	res.Evaluations = engine.Evaluations
	res.Executions = memo.executions()
	res.Cost.SearchTime = time.Since(t0)
	res.Cost.SearchDyn = searchDyn.Load()
	res.Cost.SearchExecutedDyn = memo.executedDyn.Load()
	endPhase()

	// Closing statistical FI campaign on the reported SDC-bound input.
	t0 = time.Now()
	endPhase = tr.Phase("final_fi")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(res.BestInput), b.MaxDyn, opts.CheckpointInterval)
	if err != nil {
		return nil, fmt.Errorf("core: reported input of %s is invalid: %w", b.Name, err)
	}
	if opts.CITarget > 0 {
		// Adaptive closing campaign: strata heat-ranked by the sensitivity
		// scores the pipeline already derived, seeded off one serial draw so
		// the search RNG stays deterministic.
		res.FinalAdaptive = campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{
			Workers:             opts.Workers,
			Seed:                rng.Uint64(),
			BatchSize:           opts.BatchSize,
			CITarget:            opts.CITarget,
			MinTrialsPerStratum: opts.MinTrialsPerStratum,
			MaxTrials:           opts.adaptiveMaxTrials(),
			Scores:              dist.Scores,
			Ctx:                 opts.Ctx,
		})
		res.Final = res.FinalAdaptive.Counts
		campaign.EmitAdaptiveTelemetry(tr, "fi.adaptive", res.FinalAdaptive)
	} else {
		res.Final = overallCampaign(b.Prog, g, opts.FinalTrials, rng, opts)
	}
	ckStats.Accumulate(g.CheckpointStats())
	res.Cost.FinalFIDyn = res.Final.DynInstrs + g.DynCount
	res.Cost.FinalFITime = time.Since(t0)
	tr.Advance(res.Cost.FinalFIDyn)
	endPhase()
	if composeEst != nil {
		st := composeEst.Stats()
		res.ComposeStats = &st
		tr.Emit("search.compose",
			telemetry.F("hits", st.Hits),
			telemetry.F("misses", st.Misses),
			telemetry.F("remeasured", st.Remeasured),
			telemetry.F("composed", st.Composed),
			telemetry.F("measure_trials", st.MeasureTrials),
			telemetry.F("measure_dyn", st.MeasureDyn))
	}
	campaign.EmitCheckpointTelemetry(tr, "search.fi_checkpoints", ckStats)
	campaign.EmitBatchTelemetry(tr, "fi.batch", ckStats, opts.BatchSize)
	tr.Emit("search.final", append([]telemetry.Field{
		telemetry.F("fitness", res.BestFitness),
		telemetry.F("sdc", res.SDCBound()),
	}, res.Final.Fields()...)...)
	// Final heat map of the reported SDC-bound input — the state the
	// /metrics heat gauges keep serving after the search ends.
	if opts.HeatTopK >= 0 {
		telemetry.EmitHeat(tr, "heat.topk",
			[]telemetry.Field{telemetry.F("gen", opts.Generations)},
			dist.TopHeat(g.InstrCounts, g.DynCount, opts.HeatTopK))
	}
	return res, nil
}

// overallCampaign routes one whole-program FI campaign of the pipeline:
// the serial shared-stream path by default, or — with Options.BatchSize
// > 0 — the lockstep batched runner. The serial path interleaves each
// trial's plan and fault-bit draws on one shared stream and therefore
// cannot be regrouped into batches without changing the draws; the batched
// path instead seeds per-trial streams from a single serial draw off the
// same search RNG, keeping the search deterministic and the tallies
// bit-identical for every batch size and worker count.
func overallCampaign(p *interp.Program, g *campaign.Golden, trials int, rng *xrand.RNG, opts Options) campaign.Counts {
	if opts.BatchSize > 0 {
		return campaign.OverallParallel(p, g, trials, campaign.ParallelOptions{
			Workers:   opts.Workers,
			Seed:      rng.Uint64(),
			BatchSize: opts.BatchSize,
			Ctx:       opts.Ctx,
			Model:     opts.Model,
		})
	}
	return campaign.OverallModelCtx(opts.Ctx, p, g, trials, rng, nil, opts.Model)
}

// Fitness is PEPPA-X's per-candidate evaluation (§4.2.5): one profiled
// execution, then fitness = Σᵢ scoreᵢ·(Nᵢ/N_total) — the accumulated SDC
// vulnerability potential over the executed path. Inputs whose fault-free
// run fails score 0 (§3.1.2 excludes error-raising inputs). It returns the
// fitness and the dynamic instructions spent.
//
// This is the one-shot convenience form; it runs on the profiling fast
// path. Loops evaluating many candidates should build a FitnessEval
// once and call Eval, which reuses the profiling context.
func Fitness(b *prog.Benchmark, scores []float64, input []float64) (float64, int64) {
	return NewFitnessEval(b, scores).Eval(input)
}
