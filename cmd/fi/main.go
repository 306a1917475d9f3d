// Command fi runs statistical fault-injection campaigns on a benchmark —
// the LLFI-equivalent driver. It measures whole-program SDC probability for
// an input, or per-instruction SDC probabilities with -perinstr.
//
// Usage:
//
//	fi -bench hpccg [-input "3,3,3,15,17"] [-trials 1000] [-perinstr]
//	   [-top 10] [-seed 1] [-checkpoint-interval 0] [-trace out.jsonl] [-metrics]
//	   [-metrics-addr 127.0.0.1:9464] [-heat-topk 10] [-adaptive] [-ci-target 0.035]
//
// -adaptive switches the whole-program campaign to the adaptive stratified
// runner: injection targets are partitioned into dyn-count-ranked strata,
// trials are allocated by estimated variance, and the campaign stops once
// the composed 95% Wilson half-width falls below -ci-target (default
// 0.035, the flat 1000-trial campaign's worst-case accuracy) — so -trials
// becomes a cap, not a constant. Setting -ci-target > 0 implies -adaptive.
//
// Without -input the benchmark's default reference input is used. -trace
// writes a deterministic JSONL trace (golden-run profile plus the campaign
// tally) on the dynamic-instruction cost clock; with -parallel N ≥ 1 the
// trace is byte-identical for every worker count. -metrics prints the
// end-of-run counter summary; -metrics-addr serves the same counters and
// gauges live in Prometheus text format at /metrics (plus /healthz). In
// -perinstr mode a "heat.topk" trace event carries the -heat-topk hottest
// instructions (measured SDC score × dynamic-execution fraction).
// -checkpoint-interval controls golden-prefix
// snapshotting (0 = auto-tuned spacing, -1 = every trial from scratch, N > 0
// = a snapshot every N dynamic instructions); tallies are bit-identical
// either way, checkpointing only skips redundant prefix re-execution.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench       = fs.String("bench", "pathfinder", "benchmark: "+strings.Join(prog.Names(), ", "))
		input       = fs.String("input", "", "comma-separated input values (default: reference input)")
		trials      = fs.Int("trials", 1000, "FI trials (whole-program mode) or trials per instruction")
		perInstr    = fs.Bool("perinstr", false, "measure per-instruction SDC probabilities")
		top         = fs.Int("top", 15, "how many most-SDC-prone instructions to list (per-instruction mode)")
		seed        = fs.Uint64("seed", 1, "RNG seed")
		workers     = fs.Int("parallel", 0, "fan trials across N workers (0 = serial; §5.2 parallelization)")
		multibit    = fs.Bool("multibit", false, "use the double-bit-flip fault model (same as -fault-model doubleflip)")
		faultModel  = fs.String("fault-model", "", "fault model for campaign trials: "+strings.Join(fault.ModelNames(), ", ")+" (default bitflip)")
		tracePath   = fs.String("trace", "", "write a deterministic JSONL telemetry trace to this file (byte-identical for any -parallel)")
		traceWall   = fs.Bool("trace-wallclock", false, "timestamp the -trace file with wall-clock nanoseconds instead of the deterministic cost clock (marks the trace non-reproducible)")
		metrics     = fs.Bool("metrics", false, "print an end-of-run telemetry summary (counters, gauges, worker-pool utilization)")
		metricsAddr = fs.String("metrics-addr", "", "serve live Prometheus metrics on this address (e.g. 127.0.0.1:9464) at /metrics, with /healthz liveness")
		heatTopK    = fs.Int("heat-topk", 0, "per-instruction heat events in the trace carry this many instructions (0 = default 10, negative disables; -perinstr mode)")
		ckptIval    = fs.Int64("checkpoint-interval", 0, "golden-prefix snapshot spacing in dynamic instructions (0 = auto, -1 = disable)")
		adaptive    = fs.Bool("adaptive", false, "adaptive stratified campaign: stop once the composed 95% CI half-width falls below -ci-target; -trials becomes the spend cap")
		ciTarget    = fs.Float64("ci-target", 0, "95% CI half-width target for -adaptive (0 = default 0.035; setting this implies -adaptive)")
		composeMode = fs.Bool("compose", false, "compositional estimate: measure per-segment SDC profiles once, compose them under the input's dynamic mix, and compare against a direct -trials campaign")
		composeThr  = fs.Float64("compose-threshold", 0, "profile re-measurement drift trigger for -compose (0 = default 0.05, negative = never re-measure)")
		shards      = fs.Int("shards", 0, "split the campaign's trials into N shards run concurrently (0/1 = unsharded; tallies are bit-identical at any shard count)")
		remote      = fs.String("remote", "", "submit the campaign to a peppaxd server at this base URL (e.g. http://127.0.0.1:9470) instead of running in-process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "fi:", err)
		return 1
	}

	// Resolve the fault model; -multibit is the historical spelling of
	// -fault-model doubleflip. A nil model is the single-flip default and
	// keeps every path byte-identical to earlier releases.
	if *multibit {
		if *faultModel != "" && *faultModel != fault.DoubleFlip.Name() {
			return fail(fmt.Errorf("-multibit conflicts with -fault-model %s", *faultModel))
		}
		*faultModel = fault.DoubleFlip.Name()
	}
	model, err := fault.CampaignModel(*faultModel)
	if err != nil {
		return fail(err)
	}

	var rec *telemetry.Recorder
	if *tracePath != "" || *metrics || *metricsAddr != "" {
		var sink io.Writer
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			sink = f
		}
		rec = telemetry.New(telemetry.Options{Sink: sink, WallClock: *traceWall})
		parallel.SetObserver(telemetry.PoolObserver(rec))
		defer parallel.SetObserver(nil)
		var ms *telemetry.MetricsServer
		if *metricsAddr != "" {
			var err error
			ms, err = rec.ServeMetrics(*metricsAddr)
			if err != nil {
				return fail(err)
			}
			defer ms.Close()
			fmt.Fprintf(stderr, "fi: serving metrics on http://%s/metrics\n", ms.Addr())
		}
		defer func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintln(stderr, "fi: trace:", err)
			}
			if *metrics {
				fmt.Fprint(stdout, rec.Summary())
			}
		}()
		// Deferred closes never run under os.Exit, so a SIGINT/SIGTERM must
		// flush the trace and metrics endpoint itself before dying.
		stop := telemetry.OnShutdownSignal(func(sig os.Signal) {
			rec.Close()
			if ms != nil {
				ms.Close()
			}
			os.Exit(telemetry.SignalExitCode(sig))
		})
		defer stop()
	}

	b := prog.Build(*bench)
	tr := rec.Stream("fi/" + b.Name)
	in := b.RefInput()
	if *input != "" {
		parts := strings.Split(*input, ",")
		if len(parts) != len(b.Args) {
			return fail(fmt.Errorf("%s takes %d arguments, got %d", b.Name, len(b.Args), len(parts)))
		}
		in = make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fail(fmt.Errorf("bad input value %q", p))
			}
			in[i] = v
		}
		b.ClampInput(in)
	}

	if *remote != "" {
		if *perInstr || *composeMode {
			return fail(fmt.Errorf("-remote supports whole-program flat and -adaptive campaigns only"))
		}
		return runRemote(stdout, stderr, b, in, &service.JobSpec{
			Kind:               service.KindCampaign,
			Bench:              b.Name,
			Input:              in,
			Trials:             *trials,
			Seed:               *seed,
			FaultModel:         *faultModel,
			Workers:            *workers,
			Shards:             *shards,
			CheckpointInterval: *ckptIval,
			Adaptive:           *adaptive,
			CITarget:           *ciTarget,
		}, *remote)
	}

	if *perInstr && model != nil {
		return fail(fmt.Errorf("-perinstr supports the single-bit model only"))
	}
	rng := xrand.New(*seed)
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(in), b.MaxDyn, *ckptIval)
	if err != nil {
		return fail(err)
	}
	tr.Advance(g.DynCount)
	tr.Emit("fi.golden",
		telemetry.F("dyn", g.DynCount),
		telemetry.F("coverage", g.Coverage()),
		telemetry.F("outputs", len(g.Output)))
	fmt.Fprintf(stdout, "%s with input %v\n", b.Name, in)
	fmt.Fprintf(stdout, "golden run: %d dynamic instructions, coverage %.2f, %d output values\n\n",
		g.DynCount, g.Coverage(), len(g.Output))

	if *perInstr {
		ids := campaign.AllInstructionIDs(b.Prog)
		var results []campaign.InstrResult
		if *workers >= 1 {
			// The parallel runner seeds each instruction's stream from its
			// ID, so tallies are identical for any -parallel.
			results = campaign.PerInstructionParallel(b.Prog, g, ids, *trials, campaign.ParallelOptions{
				Workers: *workers, Seed: *seed,
			})
		} else {
			results = campaign.PerInstruction(b.Prog, g, ids, *trials, rng)
		}
		var dyn int64
		var total int
		for _, r := range results {
			dyn += r.Counts.DynInstrs
			total += r.Counts.Trials
		}
		tr.Advance(dyn)
		tr.Emit("fi.perinstr",
			telemetry.F("instrs", len(ids)),
			telemetry.F("trials", total),
			telemetry.F("dyn", dyn))
		if *heatTopK >= 0 {
			// Heat weights the measured per-instruction SDC score by each
			// instruction's dynamic-execution fraction — the live form of
			// the Figure 2 heat map.
			scores := stats.Normalize(campaign.PerInstructionVector(b.Prog.NumInstrs(), results))
			telemetry.EmitHeatTopK(tr, "heat.topk",
				[]telemetry.Field{telemetry.F("trials", *trials)},
				scores, g.InstrCounts, g.DynCount, *heatTopK)
		}
		campaign.EmitCheckpointTelemetry(tr, "fi.checkpoints", g.CheckpointStats())
		printCheckpointSummary(stdout, g)
		sort.Slice(results, func(a, c int) bool {
			return results[a].Counts.SDCProbability() > results[c].Counts.SDCProbability()
		})
		instrs := b.Module.Instrs()
		fmt.Fprintf(stdout, "top %d most SDC-prone static instructions (%d trials each):\n", *top, *trials)
		fmt.Fprintf(stdout, "%-8s %-10s %-10s %-8s %-8s %s\n", "ID", "SDC", "Crash", "Hang", "Execs", "Op")
		for i, r := range results {
			if i >= *top {
				break
			}
			c := r.Counts
			fmt.Fprintf(stdout, "ID%-6d %-10s %-10s %-8d %-8d %s\n",
				r.ID, pctS(c.SDCProbability()),
				pctS(float64(c.Crash)/float64(maxi(c.Trials, 1))),
				c.Hang, g.InstrCounts[r.ID], instrs[r.ID].Op)
		}
		return 0
	}

	if *composeMode {
		e := compose.NewEstimator(b.Prog, nil, compose.Options{
			Trials:    *trials,
			Threshold: *composeThr,
			Workers:   *workers,
			Seed:      *seed,
			Model:     model,
			Trace:     tr,
		})
		est := e.EstimateGolden(g)
		tr.Advance(est.MeasureDyn)
		part := e.Partition()
		// Direct reference campaign of the same size and fault model: the
		// composed estimate should land inside this interval (the
		// equivalence contract).
		direct := campaign.OverallParallel(b.Prog, g, *trials, campaign.ParallelOptions{
			Workers: *workers, Seed: *seed, Model: model,
		})
		tr.Advance(direct.DynInstrs)
		dLo, dHi := direct.SDCInterval()
		tr.Emit("fi.compose",
			telemetry.F("granularity", part.Granularity),
			telemetry.F("segments", len(part.Segments)),
			telemetry.F("sdc", est.SDC),
			telemetry.F("lo", est.Lo),
			telemetry.F("hi", est.Hi),
			telemetry.F("measure_trials", est.MeasureTrials),
			telemetry.F("measure_dyn", est.MeasureDyn),
			telemetry.F("direct_sdc", direct.SDCProbability()),
			telemetry.F("direct_lo", dLo),
			telemetry.F("direct_hi", dHi))
		campaign.EmitCheckpointTelemetry(tr, "fi.checkpoints", g.CheckpointStats())
		printCheckpointSummary(stdout, g)
		fmt.Fprintf(stdout, "compositional estimate over %d %s segments (%d profile trials):\n",
			len(part.Segments), part.Granularity, est.MeasureTrials)
		fmt.Fprintf(stdout, "%-22s %-8s %-10s %-20s %-8s %s\n", "Segment", "Weight", "SDC", "95% CI", "Trials", "Source")
		for _, se := range est.Segments {
			fmt.Fprintf(stdout, "%-22s %-8s %-10s [%5.2f%%, %5.2f%%]     %-8d %s\n",
				se.Segment, pctS(se.Weight), pctS(se.P), se.Lo*100, se.Hi*100, se.Trials, se.Source)
		}
		fmt.Fprintf(stdout, "\n  composed SDC: %.2f%%  (95%% CI [%.2f%%, %.2f%%])\n", est.SDC*100, est.Lo*100, est.Hi*100)
		fmt.Fprintf(stdout, "  direct SDC:   %.2f%%  (95%% CI [%.2f%%, %.2f%%], %d trials)\n",
			direct.SDCProbability()*100, dLo*100, dHi*100, direct.Trials)
		inside := "inside"
		if est.SDC < dLo || est.SDC > dHi {
			inside = "OUTSIDE"
		}
		fmt.Fprintf(stdout, "  composed estimate is %s the direct campaign's interval\n", inside)
		return 0
	}

	if *adaptive || *ciTarget > 0 {
		if model != nil {
			return fail(fmt.Errorf("-adaptive supports the single-bit model only"))
		}
		ar := campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{
			Workers:   *workers,
			Seed:      *seed,
			CITarget:  *ciTarget,
			MaxTrials: *trials,
			Runner:    campaign.ShardedRunner(*shards),
		})
		tr.Advance(ar.Counts.DynInstrs)
		campaign.EmitAdaptiveTelemetry(tr, "fi.adaptive", ar)
		campaign.EmitCheckpointTelemetry(tr, "fi.checkpoints", g.CheckpointStats())
		printCheckpointSummary(stdout, g)
		c := ar.Counts
		fmt.Fprintf(stdout, "%d adaptive stratified fault-injection trials (%d strata, %d converged, %d rounds, %d/%d trials saved):\n",
			c.Trials, len(ar.Strata), ar.StrataConverged(), ar.Rounds, ar.TrialsSaved(), ar.MaxTrials)
		fmt.Fprintf(stdout, "  SDC estimate: %.2f%%  (95%% CI [%.2f%%, %.2f%%], target half-width %.2f%%)\n",
			ar.Estimate*100, ar.Lo*100, ar.Hi*100, ar.CITarget*100)
		fmt.Fprintf(stdout, "  crash:  %4d  hang: %4d  benign: %4d  (pooled across strata)\n",
			c.Crash, c.Hang, c.Benign)
		return 0
	}

	var c campaign.Counts
	desc := modelDesc(*faultModel)
	if *workers >= 1 || *shards > 1 {
		// Per-trial RNG streams derived from (seed, global trial index): the
		// tally and the trace are identical for every worker count ≥ 1 and
		// every -shards count (shards own contiguous trial-index ranges).
		c = campaign.OverallSharded(b.Prog, g, *trials, *shards, campaign.ParallelOptions{
			Workers: *workers, Seed: *seed, Model: model,
		})
	} else {
		// Serial shared-stream campaign. The double-flip model's plans are
		// the historical SampleDynamicMultiBit draws, so -multibit output is
		// byte-identical to the pre-model serial loop.
		c = campaign.OverallModelCtx(nil, b.Prog, g, *trials, rng, nil, model)
	}
	tr.Advance(c.DynInstrs)
	tr.Emit("fi.campaign", append([]telemetry.Field{
		telemetry.F("model", desc),
	}, c.Fields()...)...)
	campaign.EmitCheckpointTelemetry(tr, "fi.checkpoints", g.CheckpointStats())
	printCheckpointSummary(stdout, g)
	lo, hi := c.SDCInterval()
	fmt.Fprintf(stdout, "%d fault-injection trials (%s in random dynamic instruction results):\n", c.Trials, desc)
	fmt.Fprintf(stdout, "  SDC:    %4d  (%.2f%%, 95%% CI [%.2f%%, %.2f%%])\n", c.SDC, c.SDCProbability()*100, lo*100, hi*100)
	fmt.Fprintf(stdout, "  crash:  %4d  (%.2f%%)\n", c.Crash, float64(c.Crash)/float64(c.Trials)*100)
	fmt.Fprintf(stdout, "  hang:   %4d  (%.2f%%)\n", c.Hang, float64(c.Hang)/float64(c.Trials)*100)
	fmt.Fprintf(stdout, "  benign: %4d  (%.2f%%)\n", c.Benign, float64(c.Benign)/float64(c.Trials)*100)
	return 0
}

// runRemote submits the campaign to a peppaxd server and renders the result
// in the local output format. With -checkpoint-interval -1 (which makes the
// local run summary-free) the rendered output is byte-identical to the
// in-process run of the same flags — the e2e contract CI checks.
func runRemote(stdout, stderr io.Writer, b *prog.Benchmark, in []float64, spec *service.JobSpec, base string) int {
	cl := &service.Client{Base: strings.TrimRight(base, "/")}
	res, err := cl.Submit(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(stderr, "fi:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s with input %v\n", b.Name, in)
	fmt.Fprintf(stdout, "golden run: %d dynamic instructions, coverage %.2f, %d output values\n\n",
		res.GoldenDyn, res.GoldenCoverage, res.GoldenOutputs)
	c := res.Counts
	if ar := res.Adaptive; ar != nil {
		fmt.Fprintf(stdout, "%d adaptive stratified fault-injection trials (%d strata, %d converged, %d rounds, %d/%d trials saved):\n",
			c.Trials, ar.Strata, ar.Converged, ar.Rounds, ar.TrialsSaved, ar.MaxTrials)
		fmt.Fprintf(stdout, "  SDC estimate: %.2f%%  (95%% CI [%.2f%%, %.2f%%], target half-width %.2f%%)\n",
			res.SDC*100, res.Lo*100, res.Hi*100, ar.CITarget*100)
		fmt.Fprintf(stdout, "  crash:  %4d  hang: %4d  benign: %4d  (pooled across strata)\n",
			c.Crash, c.Hang, c.Benign)
		return 0
	}
	fmt.Fprintf(stdout, "%d fault-injection trials (%s in random dynamic instruction results):\n", c.Trials, modelDesc(spec.FaultModel))
	fmt.Fprintf(stdout, "  SDC:    %4d  (%.2f%%, 95%% CI [%.2f%%, %.2f%%])\n", c.SDC, res.SDC*100, res.Lo*100, res.Hi*100)
	fmt.Fprintf(stdout, "  crash:  %4d  (%.2f%%)\n", c.Crash, float64(c.Crash)/float64(c.Trials)*100)
	fmt.Fprintf(stdout, "  hang:   %4d  (%.2f%%)\n", c.Hang, float64(c.Hang)/float64(c.Trials)*100)
	fmt.Fprintf(stdout, "  benign: %4d  (%.2f%%)\n", c.Benign, float64(c.Benign)/float64(c.Trials)*100)
	return 0
}

// printCheckpointSummary reports how much golden-prefix replay the snapshot
// schedule saved, and how much golden-suffix work the convergence stop
// saved; silent when checkpointing is disabled.
func printCheckpointSummary(w io.Writer, g *campaign.Golden) {
	st := g.CheckpointStats()
	if st.Snapshots == 0 {
		return
	}
	fmt.Fprintf(w, "checkpoints: %d snapshots every %d dynamic instructions; %d/%d trials resumed, %d prefix instructions skipped\n",
		st.Snapshots, st.Interval, st.Restored, st.Restored+st.Scratch, st.SkippedDyn)
	fmt.Fprintf(w, "convergence: %d trials reconverged, %d dyn skipped\n\n", st.Converged, st.ConvergedDyn)
}

// modelDesc renders a fault-model name for campaign output lines.
func modelDesc(name string) string {
	switch fault.ModelKey(name) {
	case fault.DoubleFlip.Name():
		return "double bit flips"
	case fault.BurstFlip.Name():
		return "contiguous multi-bit burst flips"
	case fault.ValueCorrupt.Name():
		return "value-domain corruptions"
	default:
		return "single bit flips"
	}
}

func pctS(p float64) string { return fmt.Sprintf("%.1f%%", p*100) }

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
