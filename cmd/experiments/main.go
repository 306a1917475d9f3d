// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp table1,fig5,...] [-quick] [-seed N] [-benches a,b]
//	            [-workers N] [-out report.txt] [-list]
//	            [-trace out.jsonl] [-metrics] [-metrics-addr 127.0.0.1:9464]
//	            [-heat-topk 10] [-adaptive] [-ci-target 0.035]
//
// Without -exp it runs the full evaluation (every table and figure in the
// paper, §3/§5/§6). -quick shrinks trial counts so the whole suite runs in
// seconds; the default configuration takes minutes.
//
// -trace writes a deterministic JSONL telemetry trace: every memoized suite
// artifact (search, baseline, study, per-instruction study) emits into its
// own keyed stream on the virtual dynamic-instruction clock, and streams are
// flushed in key order, so the file is byte-identical for any -workers value
// even though experiments run concurrently. -metrics prints the end-of-run
// counter/gauge summary (memo hits/misses, wall times, pool utilization);
// -metrics-addr serves the same counters and gauges live in Prometheus text
// format at /metrics (plus /healthz) while the suite runs. -heat-topk sizes
// the per-instruction "heat.topk" events traced at search checkpoints and
// baseline bests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expList     = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		quick       = fs.Bool("quick", false, "use the reduced quick configuration")
		seed        = fs.Uint64("seed", 0, "override the RNG seed (0 = config default)")
		benches     = fs.String("benches", "", "comma-separated benchmark subset (default: all ten)")
		out         = fs.String("out", "", "also write the report to this file")
		jsonOut     = fs.String("json", "", "also write typed results as JSON to this file")
		list        = fs.Bool("list", false, "list experiment IDs and exit")
		workers     = fs.Int("workers", 0, "worker count for experiments, GA evaluation and FI trials (0 = GOMAXPROCS, 1 = serial; same seed gives the same report for any value)")
		tracePath   = fs.String("trace", "", "write a deterministic JSONL telemetry trace to this file (byte-identical for any -workers)")
		traceWall   = fs.Bool("trace-wallclock", false, "timestamp the -trace file with wall-clock nanoseconds instead of the deterministic cost clock (marks the trace non-reproducible)")
		metrics     = fs.Bool("metrics", false, "print an end-of-run telemetry summary (counters, gauges, memo hits/misses)")
		metricsAddr = fs.String("metrics-addr", "", "serve live Prometheus metrics on this address (e.g. 127.0.0.1:9464) at /metrics, with /healthz liveness")
		heatTopK    = fs.Int("heat-topk", 0, "per-instruction heat events in the trace carry this many instructions (0 = default 10, negative disables)")
		ckptIval    = fs.Int64("checkpoint-interval", 0, "golden-prefix snapshot spacing for FI campaigns, in dynamic instructions (0 = auto, -1 = disable; reports are identical either way)")
		adaptive    = fs.Bool("adaptive", false, "adaptive stratified FI for search finals and baseline candidates: stop each campaign once its composed 95% CI half-width falls below -ci-target")
		ciTarget    = fs.Float64("ci-target", 0, "95% CI half-width target for -adaptive (0 = default 0.035; setting this implies -adaptive)")
		composeMode = fs.Bool("compose", false, "compositional SDC estimation for the suite's searches and baselines: per-segment profiles measured once per benchmark, cached suite-wide, composed under each input's dynamic mix")
		composeThr  = fs.Float64("compose-threshold", 0, "profile re-measurement drift trigger for -compose (0 = default 0.05, negative = never re-measure)")
		composeTr   = fs.Int("compose-trials", 0, "trial budget of a full -compose profile pass (0 = default 1600)")
		faultModel  = fs.String("fault-model", "", "fault model for search campaigns and baseline candidates: "+strings.Join(fault.ModelNames(), ", ")+" (default bitflip; the §3 studies keep single flips)")
		strategy    = fs.String("strategy", "", "comma-separated strategy subset for the strategies experiment (e.g. genetic,fuzz; default: all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *benches != "" {
		cfg.Benches = splitList(*benches)
	}
	cfg.Workers = *workers
	cfg.CheckpointInterval = *ckptIval
	cfg.HeatTopK = *heatTopK
	if *adaptive || *ciTarget > 0 {
		cfg.CITarget = *ciTarget
		if cfg.CITarget <= 0 {
			cfg.CITarget = campaign.DefaultCITarget
		}
	}
	if *composeMode {
		cfg.Compose = true
		cfg.ComposeThreshold = *composeThr
		cfg.ComposeTrials = *composeTr
	}
	cfg.FaultModel = *faultModel
	if *strategy != "" {
		cfg.Strategies = splitList(*strategy)
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
		cfg.Recorder = rec
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
			fmt.Fprintf(stderr, "experiments: serving metrics on http://%s/metrics\n", ms.Addr())
		}
		defer func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintln(stderr, "experiments: trace:", err)
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

	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return fail(err)
	}
	var ids []string
	if *expList != "" {
		ids = splitList(*expList)
	}
	report, err := experiments.RunAll(suite, ids)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "report written to %s\n", *out)
	}
	if *jsonOut != "" {
		// Re-running is cheap: the suite caches every expensive artifact.
		results, err := experiments.RunAllStructured(suite, ids)
		if err != nil {
			return fail(err)
		}
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "JSON results written to %s\n", *jsonOut)
	}
	suite.EmitMemoStats()
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
