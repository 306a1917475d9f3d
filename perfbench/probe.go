package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/xrand"
)

// A traced run reports every per-layer metric. The lower layers are timed
// by direct calls on the workload's own inputs (probeLayers). A layer the
// workload does not exercise at all is measured by a small probe of that
// layer on the cheap probeKernels, so on that workload its numbers describe
// the layer alone.

// probeKernels are the kernels the small layer probes run on.
var probeKernels = []string{"needle", "nbody", "stencil"}

// probeTrials sizes each direct campaign probe.
const probeTrials = 200

// probeJobs is the length of the small service probe.
const probeJobs = 24

// probeInput is one (kernel, input) pair the lower-layer probes run.
type probeInput struct {
	b     *prog.Benchmark
	input []float64
}

// probeLayers times interp.Run, interp.Profiler.Run, campaign.Overall and
// campaign.OverallParallel directly on each input.
func probeLayers(rep *report, cfg config, inputs []probeInput, tr *tracer) {
	parent := tr.begin("probe.layers", 0)
	defer tr.end(parent, map[string]any{"inputs": len(inputs)})
	var (
		golden, profile, serial, batched             time.Duration
		goldenDyn, profileDyn, serialDyn, batchedDyn int64
		serialAlloc                                  uint64
		serialTrials                                 int
	)
	for i, in := range inputs {
		b, args := in.b, in.b.Encode(in.input)
		attrs := map[string]any{"kernel": b.Name}
		id := tr.begin("interp.Run", parent)
		t0 := time.Now()
		r := interp.Run(b.Prog, args, interp.Options{Profile: true, MaxDyn: b.MaxDyn})
		golden += time.Since(t0)
		tr.end(id, attrs)
		if r.Trap != nil || r.BudgetExceeded {
			rep.fail("probe %s: golden run of a workload input failed", b.Name)
			continue
		}
		goldenDyn += r.DynCount

		// The profiler is reused across calls in the GA, so time its
		// steady state: one warm-up run, then the measured one.
		pr := interp.NewProfiler(b.Prog)
		pr.Run(args, b.MaxDyn)
		id = tr.begin("interp.Profiler.Run", parent)
		t0 = time.Now()
		pr.Run(args, b.MaxDyn)
		profile += time.Since(t0)
		tr.end(id, attrs)
		profileDyn += r.DynCount

		g, err := campaign.NewGoldenCheckpointed(b.Prog, args, b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			rep.fail("probe %s: golden: %v", b.Name, err)
			continue
		}
		seed := xrand.New(cfg.seed ^ uint64(i)).Uint64()
		id = tr.begin("campaign.Overall", parent)
		a0 := memAllocated()
		t0 = time.Now()
		c := campaign.Overall(b.Prog, g, probeTrials, xrand.New(seed))
		serial += time.Since(t0)
		serialAlloc += memAllocated() - a0
		tr.end(id, attrs)
		checkTally(rep, "probe campaign.Overall "+b.Name, c, probeTrials)
		serialDyn += c.DynInstrs
		serialTrials += c.Trials

		id = tr.begin("campaign.OverallParallel", parent)
		t0 = time.Now()
		c = campaign.OverallParallel(b.Prog, g, probeTrials, campaign.ParallelOptions{
			Workers: 1, Seed: seed, BatchSize: baselineBatch,
		})
		batched += time.Since(t0)
		tr.end(id, attrs)
		checkTally(rep, "probe campaign.OverallParallel "+b.Name, c, probeTrials)
		batchedDyn += c.DynInstrs
	}
	rep.set("interp.golden_ns_per_dyn", perDyn(golden, goldenDyn), "ns/dyn")
	rep.set("interp.profile_ns_per_dyn", perDyn(profile, profileDyn), "ns/dyn")
	rep.set("campaign.serial_ns_per_dyn", perDyn(serial, serialDyn), "ns/dyn")
	rep.set("campaign.serial_alloc_bytes_per_trial", float64(serialAlloc)/float64(max(serialTrials, 1)), "B/trial")
	rep.set("campaign.batched_ns_per_dyn", perDyn(batched, batchedDyn), "ns/dyn")
}

func perDyn(d time.Duration, dyn int64) float64 {
	return float64(d.Nanoseconds()) / float64(max(dyn, 1))
}

// probePipeline runs core.Search at peppax defaults on the probe kernels
// and records the pipeline's phase split.
func probePipeline(rep *report, cfg config, tr *tracer) error {
	parent := tr.begin("probe.pipeline", 0)
	defer tr.end(parent, nil)
	var results []*core.Result
	fn := searchCall(cfg.ref.Search.Seed)
	for _, b := range buildKernels(probeKernels) {
		c := fn(b, tr, parent)
		if c.err != nil {
			return fmt.Errorf("pipeline probe %s: %w", b.Name, c.err)
		}
		results = append(results, c.search)
	}
	setPipeline(rep, results)
	return nil
}

// probeBaseline runs core.RandomSearch on the probe kernels and records the
// share of candidates rejected as invalid.
func probeBaseline(rep *report, cfg config, tr *tracer) {
	parent := tr.begin("probe.baseline", 0)
	defer tr.end(parent, nil)
	drawn, rejected := 0, 0
	fn := baselineCall(cfg.ref.Baseline.Seed)
	for _, b := range buildKernels(probeKernels) {
		r := fn(b, tr, parent).base
		drawn += r.Inputs + r.Rejected
		rejected += r.Rejected
	}
	rep.set("baseline.rejected_frac", float64(rejected)/float64(max(drawn, 1)), "frac")
}

// probeService runs a short closed loop on the probe kernels and the shard
// probe, for the workloads that make no service calls.
func probeService(rep *report, cfg config, tr *tracer) error {
	ls, err := startServer()
	if err != nil {
		return err
	}
	r := runPass(cfg, ls, planJobs(probeKernels, probeJobs), tr)
	ls.close()
	for i := range r.outs {
		if !r.outs[i].terminal {
			rep.fail("service probe job %d: %s", i, r.outs[i].errMsg)
		}
	}
	serviceLayers(rep, r)
	return probeShard2(rep, cfg, tr)
}

// shardReps is how many shards-1/shards-2 pairs the shard probe times.
const shardReps = 3

// probeShard2 submits one flat campaign spec at shards 1 and at shards 2,
// whose two shards run concurrently in the server, and records the median
// run-time ratio. Both must return the same tally.
func probeShard2(rep *report, cfg config, tr *tracer) error {
	parent := tr.begin("probe.shard2", 0)
	defer tr.end(parent, nil)
	ls, err := startServer()
	if err != nil {
		return err
	}
	defer ls.close()
	b := prog.Build("hpccg")
	spec := jobSpec(kindFlat, b.Name, b.RefInput(), xrand.New(cfg.seed).Uint64())
	run := func(n int) (time.Duration, *service.JobResult, error) {
		s := spec
		s.Shards = n
		o := ls.submit(&s, nil)
		if !o.ok() {
			return 0, nil, fmt.Errorf("shard probe at %d shards: %s", n, o.errMsg)
		}
		tr.record("service.run", parent, o.started, o.done, map[string]any{"shards": n})
		return o.done.Sub(o.started), o.res, nil
	}
	if _, _, err := run(1); err != nil { // warm the golden cache
		return err
	}
	var one, two []time.Duration
	for range shardReps {
		d1, r1, err := run(1)
		if err != nil {
			return err
		}
		d2, r2, err := run(2)
		if err != nil {
			return err
		}
		if r1.Counts != r2.Counts {
			rep.fail("shard probe: shards 1 tally %+v differs from shards 2 tally %+v", r1.Counts, r2.Counts)
		}
		one, two = append(one, d1), append(two, d2)
	}
	rep.set("service.shard2_speedup", median(one).Seconds()/median(two).Seconds(), "x")
	return nil
}

// finishTrace writes the spans, logs self time per span name, and logs the
// per-layer metrics.
func finishTrace(cfg config, tr *tracer, rep *report, log io.Writer) error {
	path, err := tr.write(cfg.spanDir, spanFile(cfg))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	logf(log, "spans written to %s; self time by span:", path)
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(log, "  %-28s %10.1f ms\n", n, ms(self[n]))
	}
	logf(log, "per-layer metrics:\n%s", describe(rep.metrics))
	return nil
}

// printReference runs one search sweep and one baseline sweep at the
// recorded seeds and prints a reference.json document.
func printReference(cfg config, stdout, stderr io.Writer) int {
	benches := buildKernels(cfg.kernels)
	ref := reference{
		Search:   refSet{Seed: cfg.ref.Search.Seed, Trials: core.DefaultOptions().FinalTrials, SDC: map[string]float64{}},
		Baseline: refSet{Seed: cfg.ref.Baseline.Seed, Trials: baselineTrials, SDC: map[string]float64{}},
	}
	search, base := searchCall(ref.Search.Seed), baselineCall(ref.Baseline.Seed)
	for _, b := range benches {
		c := search(b, nil, 0)
		if c.err != nil {
			fmt.Fprintln(stderr, "perfbench:", c.err)
			return 1
		}
		ref.Search.SDC[b.Name] = c.search.SDCBound()
		ref.Baseline.SDC[b.Name] = base(b, nil, 0).base.BestSDC
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}
