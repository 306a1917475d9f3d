// Command peppax runs the PEPPA-X SDC-bound input search on one benchmark
// (or a custom program) and reports the found input, its fault-injection-
// measured SDC probability, and the cost breakdown. With -baseline it also
// runs the random-search baseline under the same budget; with -max-sdc it
// acts as a CI reliability gate (§7.1.2).
//
// Usage:
//
//	peppax -bench pathfinder [-generations 200] [-pop 16] [-trials 1000]
//	       [-seed 1] [-workers N] [-baseline] [-checkpoints 50,100,200]
//	       [-max-sdc 0.2] [-trace out.jsonl] [-trace-wallclock] [-metrics]
//	       [-metrics-addr 127.0.0.1:9464] [-heat-topk 10]
//	       [-adaptive] [-ci-target 0.035] [-fault-model burst]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	peppax -file prog.ir -spec "n:int:4:64:8,seed:int:1:100:7"
//
// -adaptive switches the closing FI measurement (and, with -baseline, each
// baseline candidate's campaign) to the adaptive stratified runner: strata
// heat-ranked by the derived sensitivity scores, trials allocated by
// estimated variance, stopping once the composed 95% Wilson half-width
// falls below -ci-target (default 0.035) — -trials becomes the cap.
// Setting -ci-target > 0 implies -adaptive.
//
// -trace writes a deterministic JSONL event trace (per-generation GA
// progress, pipeline phase costs, FI tallies) timestamped on the virtual
// dynamic-instruction clock: the file is byte-identical for any -workers
// value. -trace-wallclock switches the trace to wall-clock timestamps —
// useful for real-time latency analysis, but the file is then marked
// "reproducible":false in its meta line and varies run to run. -metrics
// prints an end-of-run counter/gauge summary (wall times, worker-pool
// utilization), which IS schedule-dependent. -metrics-addr serves the same
// counters and gauges live in Prometheus text format at /metrics (plus a
// /healthz liveness probe) for the duration of the run. -heat-topk sizes the
// per-instruction "heat.topk" trace events emitted at search checkpoints and
// baseline bests. -cpuprofile and -memprofile write pprof profiles of the
// whole run for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/prog"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("peppax", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench       = fs.String("bench", "pathfinder", "benchmark: "+strings.Join(prog.Names(), ", "))
		file        = fs.String("file", "", "textual IR file of a custom program (overrides -bench; requires -spec)")
		spec        = fs.String("spec", "", "argument spec for -file: name:kind:min:max:ref[:smallMin:smallMax],...")
		generations = fs.Int("generations", 200, "GA generations")
		pop         = fs.Int("pop", 16, "GA population size")
		trials      = fs.Int("trials", 1000, "FI trials for the final SDC measurement")
		trialsRep   = fs.Int("rep-trials", 30, "FI trials per pruning representative")
		seed        = fs.Uint64("seed", 1, "RNG seed")
		baseline    = fs.Bool("baseline", false, "also run the random+FI baseline with the same budget")
		checkpoints = fs.String("checkpoints", "", "comma-separated generations to FI-measure (e.g. 50,100,200)")
		maxSDC      = fs.Float64("max-sdc", 0, "CI gate (§7.1.2): exit non-zero if the SDC bound exceeds this fraction (0 disables)")
		workers     = fs.Int("workers", 0, "worker count for GA candidate evaluation and baseline FI trials (0 = GOMAXPROCS, 1 = serial; results are identical for any value)")
		tracePath   = fs.String("trace", "", "write a deterministic JSONL telemetry trace to this file (byte-identical for any -workers)")
		traceWall   = fs.Bool("trace-wallclock", false, "timestamp the -trace file with wall-clock nanoseconds instead of the deterministic cost clock (marks the trace non-reproducible)")
		metrics     = fs.Bool("metrics", false, "print an end-of-run telemetry summary (counters, gauges, worker-pool utilization)")
		metricsAddr = fs.String("metrics-addr", "", "serve live Prometheus metrics on this address (e.g. 127.0.0.1:9464) at /metrics, with /healthz liveness")
		heatTopK    = fs.Int("heat-topk", 0, "per-instruction heat events in the trace carry this many instructions (0 = default 10, negative disables)")
		ckptIval    = fs.Int64("checkpoint-interval", 0, "golden-prefix snapshot spacing for FI campaigns, in dynamic instructions (0 = auto, -1 = disable; results are identical either way)")
		batch       = fs.Int("batch", 0, "lockstep batch size for FI campaigns: trials sharing a checkpoint run as one batch (0 = per-trial; switches campaigns to per-trial RNG streams, see core.Options.BatchSize)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
		adaptive    = fs.Bool("adaptive", false, "adaptive stratified FI for the final measurement (and -baseline candidates): stop once the composed 95% CI half-width falls below -ci-target; -trials becomes the spend cap")
		ciTarget    = fs.Float64("ci-target", 0, "95% CI half-width target for -adaptive (0 = default 0.035; setting this implies -adaptive)")
		composeMode = fs.Bool("compose", false, "compositional SDC estimation: per-segment profiles measured once, cached, and composed under each input's dynamic mix for the sensitivity derivation, checkpoints and -baseline candidates")
		composeThr  = fs.Float64("compose-threshold", 0, "profile re-measurement drift trigger for -compose (0 = default 0.05, negative = never re-measure)")
		composeTr   = fs.Int("compose-trials", 0, "trial budget of a full -compose profile pass (0 = default 1600)")
		faultModel  = fs.String("fault-model", "", "fault model for the checkpoint and closing FI campaigns (and -baseline candidates): "+strings.Join(fault.ModelNames(), ", ")+" (default bitflip)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "peppax:", err)
		return 1
	}

	model, err := fault.CampaignModel(*faultModel)
	if err != nil {
		return fail(err)
	}
	if model != nil && (*adaptive || *ciTarget > 0) {
		return fail(fmt.Errorf("-adaptive campaigns support only the default fault model, got -fault-model %s", *faultModel))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "peppax: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "peppax: memprofile:", err)
			}
		}()
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
			fmt.Fprintf(stderr, "peppax: serving metrics on http://%s/metrics\n", ms.Addr())
		}
		defer func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintln(stderr, "peppax: trace:", err)
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

	var b *prog.Benchmark
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return fail(err)
		}
		b, err = prog.LoadCustom(string(src), *spec, 0)
		if err != nil {
			return fail(err)
		}
	} else {
		b = prog.Build(*bench)
	}
	opts := core.DefaultOptions()
	opts.Generations = *generations
	opts.PopSize = *pop
	opts.FinalTrials = *trials
	opts.TrialsPerRep = *trialsRep
	opts.Workers = *workers
	opts.CheckpointInterval = *ckptIval
	opts.BatchSize = *batch
	opts.HeatTopK = *heatTopK
	opts.Model = model
	opts.Trace = rec.Stream("search/" + b.Name)
	if *adaptive || *ciTarget > 0 {
		opts.CITarget = *ciTarget
		if opts.CITarget <= 0 {
			opts.CITarget = campaign.DefaultCITarget
		}
	}
	if *composeMode {
		opts.Compose = true
		opts.ComposeThreshold = *composeThr
		opts.ComposeTrials = *composeTr
		// One cache for the whole invocation, so a -baseline run reuses the
		// profiles the search already measured.
		opts.ComposeCache = compose.NewCache(0)
	}
	for _, c := range strings.Split(*checkpoints, ",") {
		if c = strings.TrimSpace(c); c != "" {
			n, err := strconv.Atoi(c)
			if err != nil {
				return fail(fmt.Errorf("bad checkpoint %q", c))
			}
			opts.Checkpoints = append(opts.Checkpoints, n)
		}
	}

	rng := xrand.New(*seed)
	fmt.Fprintf(stdout, "PEPPA-X search on %s (%s): %d generations, population %d\n\n",
		b.Name, b.Description, opts.Generations, opts.PopSize)

	res, err := core.Search(b, opts, rng)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "step 1  small FI input:        %v\n", res.SmallInput.Input)
	fmt.Fprintf(stdout, "        coverage %.2f (target %.2f), workload %d dyn instrs (reference: %d)\n",
		res.SmallInput.Coverage, res.SmallInput.TargetCoverage,
		res.SmallInput.Golden.DynCount, res.SmallInput.RefDynCount)
	fmt.Fprintf(stdout, "step 2+3 sensitivity analysis: %d representatives (%d FI sites), %d trials, %.1fM dyn instrs\n",
		res.Distribution.Representatives, b.Prog.NumInstrs(),
		res.Distribution.FITrials, float64(res.Distribution.FIDynInstrs)/1e6)
	fmt.Fprintf(stdout, "step 4+5 genetic search:       %d candidate evaluations (%d executed), %.1fM dyn instrs charged (%.1fM executed)\n\n",
		res.Evaluations, res.Executions, float64(res.Cost.SearchDyn)/1e6, float64(res.Cost.SearchExecutedDyn)/1e6)

	fmt.Fprintf(stdout, "SDC-bound input:   %v\n", res.BestInput)
	fmt.Fprintf(stdout, "fitness score:     %.4f\n", res.BestFitness)
	lo, hi := res.SDCInterval()
	fmt.Fprintf(stdout, "SDC probability:   %.2f%% (95%% CI [%.2f%%, %.2f%%]; %d/%d trials; crash %d, hang %d, benign %d)\n",
		res.SDCBound()*100, lo*100, hi*100,
		res.Final.SDC, res.Final.Trials, res.Final.Crash, res.Final.Hang, res.Final.Benign)
	if ar := res.FinalAdaptive; ar != nil {
		fmt.Fprintf(stdout, "adaptive campaign: %d strata (%d converged), %d rounds, %d/%d trials saved at CI target %.2f%%\n",
			len(ar.Strata), ar.StrataConverged(), ar.Rounds, ar.TrialsSaved(), ar.MaxTrials, ar.CITarget*100)
	}
	fmt.Fprintf(stdout, "total cost:        %.1fM dyn instrs, %v wall clock\n",
		float64(res.Cost.TotalDyn())/1e6, res.Cost.TotalTime().Round(1000000))

	if st := res.ComposeStats; st != nil {
		fmt.Fprintf(stdout, "compose cache:     %d composed estimates, %d hits, %d misses, %d re-measured (%d profile trials, %.1fM dyn instrs)\n",
			st.Composed, st.Hits, st.Misses, st.Remeasured, st.MeasureTrials, float64(st.MeasureDyn)/1e6)
	}

	for _, cp := range res.Checkpoints {
		fmt.Fprintf(stdout, "  checkpoint @%-5d SDC %.2f%%  input %v\n",
			cp.Generation, cp.SDCEstimate()*100, cp.BestInput)
	}

	if *baseline {
		fmt.Fprintf(stdout, "\nbaseline (random inputs + %d-trial FI each, equal budget %.1fM dyn instrs):\n",
			*trials, float64(res.Cost.TotalDyn())/1e6)
		base := core.RandomSearch(b, core.BaselineOptions{
			TrialsPerInput:   *trials,
			DynBudget:        res.Cost.TotalDyn(),
			Workers:          *workers,
			BatchSize:        *batch,
			HeatTopK:         *heatTopK,
			CITarget:         opts.CITarget,
			Compose:          opts.Compose,
			ComposeThreshold: opts.ComposeThreshold,
			ComposeTrials:    opts.ComposeTrials,
			ComposeCache:     opts.ComposeCache,
			Model:            model,
			Trace:            rec.Stream("baseline/" + b.Name),
		}, xrand.New(*seed+1))
		fmt.Fprintf(stdout, "  evaluated %d inputs (%d rejected), best SDC %.2f%% with input %v\n",
			base.Inputs, base.Rejected, base.BestSDC*100, base.BestInput)
		if st := base.ComposeStats; st != nil {
			fmt.Fprintf(stdout, "  compose cache: %d composed estimates, %d hits, %d re-measured\n",
				st.Composed, st.Hits, st.Remeasured)
		}
		if base.BestSDC < res.SDCBound() {
			fmt.Fprintf(stdout, "  PEPPA-X bound is %.1fx higher\n",
				res.SDCBound()/maxf(base.BestSDC, 1e-9))
		}
	}

	if *maxSDC > 0 {
		// CI-gate mode (§7.1.2): a conservative release check. The SDC
		// bound found by the search must stay within the reliability
		// target, or the build fails.
		bound := res.SDCBound()
		if bound > *maxSDC {
			fmt.Fprintf(stdout, "\nCI gate FAILED: SDC bound %.2f%% exceeds target %.2f%%\n", bound*100, *maxSDC*100)
			return 2
		}
		fmt.Fprintf(stdout, "\nCI gate passed: SDC bound %.2f%% within target %.2f%%\n", bound*100, *maxSDC*100)
	}
	return 0
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
