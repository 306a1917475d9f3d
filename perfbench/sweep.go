package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// The search and baseline workloads sweep the ten kernels with one public
// call per kernel, closed loop: each call is due when the previous returns.
// Both run at the seed their reference bounds were recorded at (the
// inputs a search finds, and the time it takes, swing by up to 4x across
// seeds), so --seed orders the kernels of each sweep.

// Baseline workload size: the paper's random+FI baseline, with a fixed
// candidate count and campaign size per kernel.
const (
	baselineCandidates = 4
	baselineTrials     = 1000
	baselineBatch      = 64
)

// allKernels is the benchmark suite in prog.Names order.
func allKernels() []string { return prog.Names() }

// buildKernels compiles every named kernel — the set-up the search and
// baseline workloads pay.
func buildKernels(names []string) []*prog.Benchmark {
	out := make([]*prog.Benchmark, 0, len(names))
	for _, n := range names {
		out = append(out, prog.Build(n))
	}
	return out
}

// call is one public call of a sweep.
type call struct {
	kernel     string
	due, start time.Time
	done       time.Time
	search     *core.Result
	base       *core.BaselineResult
	err        error
}

func (c call) latency() time.Duration { return c.done.Sub(c.due) }
func (c call) lag() time.Duration     { return c.start.Sub(c.due) }

// sweep is one pass over every kernel.
type sweep struct {
	wall  time.Duration
	calls []call
}

// callFunc makes one kernel's call, recording a span under parent.
type callFunc func(b *prog.Benchmark, tr *tracer, parent int) call

// runSweeps repeats sweeps until the next one would end past the time limit
// (always at least one). Kernel order is a fresh seeded permutation per
// sweep. It also returns the heap retained after the first sweep, which
// holds the kernels and one sweep of results whatever the sweep count.
func runSweeps(cfg config, benches []*prog.Benchmark, tr *tracer, fn callFunc) ([]sweep, float64) {
	rng := xrand.New(cfg.seed)
	limit := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var (
		out      []sweep
		retained float64
	)
	for {
		sp := tr.begin("sweep", 0)
		t0 := time.Now()
		due := t0
		var calls []call
		for _, i := range rng.Perm(len(benches)) {
			started := time.Now()
			c := fn(benches[i], tr, sp)
			c.due, c.start, c.done = due, started, time.Now()
			due = c.done
			calls = append(calls, c)
		}
		s := sweep{wall: time.Since(t0), calls: calls}
		tr.end(sp, map[string]any{"calls": len(calls)})
		out = append(out, s)
		if len(out) == 1 {
			retained = retainedHeapMB()
		}
		if time.Since(start)+s.wall > limit {
			return out, retained
		}
	}
}

// searchCall runs one PEPPA-X search at peppax defaults.
func searchCall(seed uint64) callFunc {
	return func(b *prog.Benchmark, tr *tracer, parent int) call {
		opts := core.DefaultOptions()
		opts.Workers = workers
		id := tr.begin("core.Search", parent)
		r, err := core.Search(b, opts, xrand.New(seed))
		var attrs map[string]any
		if err == nil {
			attrs = map[string]any{
				"kernel":         b.Name,
				"small_input_ns": r.Cost.SmallInputTime.Nanoseconds(),
				"sensitivity_ns": r.Cost.SensitivityTime.Nanoseconds(),
				"search_ns":      r.Cost.SearchTime.Nanoseconds(),
				"final_fi_ns":    r.Cost.FinalFITime.Nanoseconds(),
				"evaluations":    r.Evaluations,
				"sdc":            r.SDCBound(),
			}
		}
		tr.end(id, attrs)
		return call{kernel: b.Name, search: r, err: err}
	}
}

// baselineCall runs one random+FI baseline search.
func baselineCall(seed uint64) callFunc {
	return func(b *prog.Benchmark, tr *tracer, parent int) call {
		id := tr.begin("core.RandomSearch", parent)
		r := core.RandomSearch(b, baselineOptions(), xrand.New(seed))
		tr.end(id, map[string]any{
			"kernel": b.Name, "inputs": r.Inputs, "rejected": r.Rejected,
			"dyn": r.DynSpent, "elapsed_ns": r.Elapsed.Nanoseconds(), "best_sdc": r.BestSDC,
		})
		return call{kernel: b.Name, base: r}
	}
}

func baselineOptions() core.BaselineOptions {
	return core.BaselineOptions{
		TrialsPerInput: baselineTrials,
		MaxInputs:      baselineCandidates,
		Workers:        workers,
		BatchSize:      baselineBatch,
	}
}

// sweepStats are the end-to-end figures of a pass. latencies holds one
// value per kernel, the median of its calls across sweeps, so the latency
// percentiles rank the same ten calls however many sweeps fit in a run.
type sweepStats struct {
	walls, latencies, lags []time.Duration
}

func collect(sweeps []sweep) sweepStats {
	var st sweepStats
	byKernel := map[string][]time.Duration{}
	for _, s := range sweeps {
		st.walls = append(st.walls, s.wall)
		for _, c := range s.calls {
			byKernel[c.kernel] = append(byKernel[c.kernel], c.latency())
			st.lags = append(st.lags, c.lag())
		}
	}
	for _, ls := range byKernel {
		st.latencies = append(st.latencies, median(ls))
	}
	return st
}

// runSearch is the search workload: one core.Search per kernel.
func runSearch(cfg config, log io.Writer) (*report, error) {
	return runSweepWorkload(cfg, log, searchCall(cfg.ref.Search.Seed), checkSearch, searchLayers)
}

// runBaseline is the baseline workload: one core.RandomSearch per kernel.
func runBaseline(cfg config, log io.Writer) (*report, error) {
	return runSweepWorkload(cfg, log, baselineCall(cfg.ref.Baseline.Seed), checkBaseline, baselineLayers)
}

// checkFunc gates a pass and returns the mean SDC bound of its first sweep.
type checkFunc func(rep *report, cfg config, byName map[string]*prog.Benchmark, sweeps []sweep) float64

// layersFunc records a workload's own per-layer metrics from its first
// traced sweep and probes the layers it does not call.
type layersFunc func(rep *report, cfg config, byName map[string]*prog.Benchmark, s sweep, tr *tracer) error

// runSweepWorkload runs a sweep workload: set-up, the untraced timed phase
// and, for a traced run, the traced phase and the probes.
func runSweepWorkload(cfg config, log io.Writer, fn callFunc, check checkFunc, layers layersFunc) (*report, error) {
	benches, setup, err := timeSetup(func() ([]*prog.Benchmark, error) { return buildKernels(cfg.kernels), nil }, nil)
	if err != nil {
		return nil, err
	}
	byName := kernelIndex(benches)
	rep := newReport()
	untraced, retainedMB := runSweeps(cfg, benches, nil, fn)
	sdcMean := check(rep, cfg, byName, untraced)
	st := collect(untraced)
	logf(log, "%s: %d sweeps, median %.3fs", cfg.workload, len(untraced), median(st.walls).Seconds())
	if !cfg.trace {
		setE2E(rep, log, median(st.walls), setup, retainedMB, sdcMean, st.latencies)
		return rep, nil
	}

	tr := newTracer()
	traced, _ := runSweeps(cfg, benches, tr, fn)
	check(rep, cfg, byName, traced)
	setSweepHealth(rep, st, collect(traced), setup)
	if err := layers(rep, cfg, byName, traced[0], tr); err != nil {
		return nil, err
	}
	if err := probeService(rep, cfg, tr); err != nil {
		return nil, err
	}
	return rep, finishTrace(cfg, tr, rep, log)
}

// searchLayers records the pipeline's phase split and FI spend, probes the
// lower layers on each kernel's reference and found inputs, and probes the
// baseline.
func searchLayers(rep *report, cfg config, byName map[string]*prog.Benchmark, s sweep, tr *tracer) error {
	var (
		results []*core.Result
		trials  int
		fiDyn   int64
		inputs  []probeInput
	)
	for _, c := range s.calls {
		r := c.search
		if r == nil {
			continue
		}
		results = append(results, r)
		trials += r.Distribution.FITrials + r.Final.Trials
		fiDyn += r.Distribution.FIDynInstrs + r.Final.DynInstrs
		b := byName[c.kernel]
		inputs = append(inputs, probeInput{b, b.RefInput()}, probeInput{b, r.BestInput})
	}
	setPipeline(rep, results)
	setCampaign(rep, trials, fiDyn, s.wall)
	probeLayers(rep, cfg, inputs, tr)
	probeBaseline(rep, cfg, tr)
	return nil
}

// baselineLayers records the baseline's FI spend and rejections, probes the
// lower layers on each kernel's reference and best inputs, and probes the
// pipeline.
func baselineLayers(rep *report, cfg config, byName map[string]*prog.Benchmark, s sweep, tr *tracer) error {
	var (
		trials, drawn, rejected int
		dyn                     int64
		inputs                  []probeInput
	)
	for _, c := range s.calls {
		r := c.base
		trials += r.Inputs * baselineTrials
		drawn += r.Inputs + r.Rejected
		rejected += r.Rejected
		dyn += r.DynSpent
		b := byName[c.kernel]
		inputs = append(inputs, probeInput{b, b.RefInput()}, probeInput{b, r.BestInput})
	}
	setCampaign(rep, trials, dyn, s.wall)
	rep.set("baseline.rejected_frac", float64(rejected)/float64(max(drawn, 1)), "frac")
	probeLayers(rep, cfg, inputs, tr)
	return probePipeline(rep, cfg, tr)
}

// setCampaign records the FI trials a timed phase ran, their dynamic
// instructions, and trials per second of the phase.
func setCampaign(rep *report, trials int, dyn int64, wall time.Duration) {
	rep.set("campaign.trials", float64(trials), "count")
	rep.set("campaign.dyn", float64(dyn), "dyn")
	rep.set("campaign.trials_per_s", float64(trials)/wall.Seconds(), "1/s")
}

// checkSearch gates a search pass and returns the mean SDC bound of its
// first sweep. Every sweep runs the same fixed-seed searches, so later
// sweeps must reproduce the first exactly.
func checkSearch(rep *report, cfg config, byName map[string]*prog.Benchmark, sweeps []sweep) float64 {
	first := map[string]*core.Result{}
	var sum float64
	for si, s := range sweeps {
		for _, c := range s.calls {
			rep.attempted++
			if c.err != nil {
				rep.failed++
				rep.fail("search %s: %v", c.kernel, c.err)
				continue
			}
			r := c.search
			what := fmt.Sprintf("search %s (sweep %d)", c.kernel, si)
			if si == 0 {
				first[c.kernel] = r
				sum += r.SDCBound()
				checkGolden(rep, what, byName[c.kernel], r.BestInput)
				checkTally(rep, what+" final FI", r.Final, core.DefaultOptions().FinalTrials)
				checkBound(rep, cfg.ref.Search, "search", c.kernel, r.SDCBound())
				continue
			}
			if f := first[c.kernel]; f != nil && (f.Final != r.Final || !slices.Equal(f.BestInput, r.BestInput)) {
				rep.fail("%s: result differs from sweep 0 at the same seed", what)
			}
		}
	}
	return sum / float64(max(len(first), 1))
}

// checkBaseline gates a baseline pass and returns the mean best SDC bound of
// its first sweep.
func checkBaseline(rep *report, cfg config, byName map[string]*prog.Benchmark, sweeps []sweep) float64 {
	first := map[string]*core.BaselineResult{}
	var sum float64
	for si, s := range sweeps {
		for _, c := range s.calls {
			r := c.base
			rep.attempted += r.Inputs + r.Rejected
			rep.failed += r.Rejected
			what := fmt.Sprintf("baseline %s (sweep %d)", c.kernel, si)
			if r.Inputs == 0 {
				rep.fail("%s: no valid candidate", what)
				continue
			}
			if si == 0 {
				first[c.kernel] = r
				sum += r.BestSDC
				checkGolden(rep, what, byName[c.kernel], r.BestInput)
				checkTally(rep, what+" best campaign", r.Best, baselineTrials)
				if r.BestSDC != r.Best.SDCProbability() {
					rep.fail("%s: best SDC %.4f disagrees with its tally %.4f", what, r.BestSDC, r.Best.SDCProbability())
				}
				checkBound(rep, cfg.ref.Baseline, "baseline", c.kernel, r.BestSDC)
				continue
			}
			if f := first[c.kernel]; f != nil && (f.Best != r.Best || f.Inputs != r.Inputs || !slices.Equal(f.BestInput, r.BestInput)) {
				rep.fail("%s: result differs from sweep 0 at the same seed", what)
			}
		}
	}
	return sum / float64(max(len(first), 1))
}

// setSweepHealth records the health of a traced closed-loop pass: how late
// calls started after their due time, the backlog (always empty in a closed
// loop), the traced-versus-untraced wall, and the kernel build time.
func setSweepHealth(rep *report, untraced, traced sweepStats, setup time.Duration) {
	rep.set("prog.build_ms", ms(setup), "ms")
	rep.set("bench.peak_rss_mb", peakRSSMB(), "MB")
	rep.set("bench.gen_lag_ms_p95", ms(percentile(traced.lags, 0.95)), "ms")
	rep.set("bench.backlog_end", 0, "count")
	rep.set("bench.trace_overhead_frac", median(traced.walls).Seconds()/median(untraced.walls).Seconds()-1, "frac")
}

// setPipeline records the PEPPA-X pipeline's phase split, summed over the
// searches.
func setPipeline(rep *report, results []*core.Result) {
	var (
		small, sens, ga, final   time.Duration
		evals, sensTrials        int
		dynModelled, dynExecuted int64
	)
	for _, r := range results {
		small += r.Cost.SmallInputTime
		sens += r.Cost.SensitivityTime
		ga += r.Cost.SearchTime
		final += r.Cost.FinalFITime
		evals += r.Evaluations
		sensTrials += r.Distribution.FITrials
		dynModelled += r.Distribution.FIDynInstrs
		// Resumed trials skip the golden prefix before their checkpoint;
		// the modelled figure counts it as executed.
		dynExecuted += r.Distribution.FIDynInstrs - r.SmallInput.Golden.CheckpointStats().SkippedDyn
	}
	rep.set("core.small_input_ms", ms(small), "ms")
	rep.set("core.sensitivity_ms", ms(sens), "ms")
	rep.set("core.ga_ms", ms(ga), "ms")
	rep.set("core.final_fi_ms", ms(final), "ms")
	rep.set("ga.evaluations", float64(evals), "count")
	rep.set("ga.us_per_eval", float64(ga.Microseconds())/float64(max(evals, 1)), "us")
	rep.set("sensitivity.trials", float64(sensTrials), "count")
	rep.set("sensitivity.dyn_modelled", float64(dynModelled), "dyn")
	rep.set("sensitivity.dyn_executed", float64(dynExecuted), "dyn")
	rep.set("sensitivity.ns_per_executed_dyn", float64(sens.Nanoseconds())/float64(max(dynExecuted, 1)), "ns/dyn")
}

func kernelIndex(benches []*prog.Benchmark) map[string]*prog.Benchmark {
	m := make(map[string]*prog.Benchmark, len(benches))
	for _, b := range benches {
		m[b.Name] = b
	}
	return m
}
