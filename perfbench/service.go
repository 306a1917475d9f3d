package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/parallel"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/xrand"
)

// The service workload drives peppaxd with a closed loop of clients: each
// client thinks for a seeded moment, sends the next job of a fixed sequence
// and waits for its terminal document, so more clients than server slots
// keep a queue in front of the slots. Every job travels over one cleartext
// HTTP/2 connection, so one generating process holds a single connection
// however many jobs are in flight.

// serviceConfig sizes a service run. The self-tests and the service probe
// shrink it; a workload run uses the zero value.
type serviceConfig struct {
	// jobs fixes the run's length (0: jobsPerSecond × seconds).
	jobs int
	// kernels limits the jobs to these benchmarks (nil: all of them).
	kernels []string
}

// Service workload shape: four closed-loop clients, each thinking for an
// exponential time of mean thinkMean before a send, on a server with two
// slots, two shards per campaign and room for every client in its queue.
const (
	jobsPerSecond = 40
	clients       = 4
	thinkMean     = 10 * time.Millisecond
	slots         = 2
	shards        = 2
	queueCap      = 32
)

// The loop is closed, not open. Under an open loop at 60% of the closed
// loop's capacity a job's latency was mostly queueing, which multiplies the
// host's own run-to-run noise (about 10% on identical work) by 1/(1-load),
// and heavy jobs arriving together jammed both slots: over five seeds
// job_p50_ms spread 0.11–0.43 of its median and the 95th percentile
// 0.2–0.9, at rates from 10 to 52 jobs/s. Four clients on two slots keep
// both slots busy and about two jobs queued all run long, and at 30 jobs
// per second of --seconds a run lasts about as long as the other
// workloads' on a 2-core Xeon @ 2.1 GHz.

// serviceSpecSeed draws the service workload's job specs — kernels, kinds,
// inputs and campaign seeds — so every run sends the same jobs in the same
// order and --seed draws only the clients' think times. With seeded specs,
// rare trials (an FI trial that grows the interpreter's memory, a compose
// job that re-measures a drifted profile) came and went with the seed and
// moved job_p50_ms by 5x and the live heap by 5x.
const serviceSpecSeed = 1

// Job sizes: flat campaigns run flatTrials trials; adaptive campaigns stop
// at the adaptive CI target or the trial cap; compose jobs measure profiles
// with a budget of composeTrials.
const (
	flatTrials       = 250
	adaptiveMaxTrial = 500
	adaptiveCI       = 0.05
	composeTrials    = 500
)

// freshInputFrac widens fresh inputs from each argument's small range
// toward its full range, as the small-input fuzzer does (§4.2.1). At 0.3
// a fresh input costs 0.2-1.1x the reference input on average and at most
// 2.4x, where full-range draws reach 12x and let a few inputs dominate a
// run's load.
const freshInputFrac = 0.3

// Job kinds. A block of ten fresh jobs holds four flat, three adaptive and
// three compose jobs.
const (
	kindFlat     = "flat"
	kindAdaptive = "adaptive"
	kindCompose  = "compose"
)

var (
	freshKinds = []string{kindFlat, kindFlat, kindFlat, kindFlat, kindAdaptive, kindAdaptive, kindAdaptive, kindCompose, kindCompose, kindCompose}
	poolKinds  = []string{kindFlat, kindAdaptive, kindCompose}
)

// plannedJob is one job of the sequence.
type plannedJob struct {
	kind string
	pool int // index into the pool, -1 for a fresh spec
	spec service.JobSpec
}

func jobSpec(kind, bench string, input []float64, seed uint64) service.JobSpec {
	s := service.JobSpec{
		Kind: service.KindCampaign, Bench: bench, Input: input, Trials: flatTrials,
		Seed: seed, Workers: 1, Batch: baselineBatch, Shards: shards,
	}
	switch kind {
	case kindAdaptive:
		s.Adaptive, s.Trials, s.CITarget = true, adaptiveMaxTrial, adaptiveCI
	case kindCompose:
		s.Kind, s.Trials = service.KindSensitivity, composeTrials
	}
	return s
}

// planJobs draws the job sequence. Of each pair of jobs, one repeats a
// spec from the pool — one spec per kernel on its reference input, so
// repeats hit the server's golden and profile caches — and the other is
// fresh: a random input, which misses. Fresh jobs cycle through every
// kernel and the kind mix, so any stretch of the sequence holds the same
// blend of kernels and kinds.
func planJobs(names []string, n int) []plannedJob {
	rng := xrand.New(serviceSpecSeed)
	if names == nil {
		names = allKernels()
	}
	benches := make([]*prog.Benchmark, len(names))
	pool := make([]service.JobSpec, len(names))
	for i, name := range names {
		benches[i] = prog.Build(name)
		pool[i] = jobSpec(poolKinds[i%len(poolKinds)], name, benches[i].RefInput(), rng.Uint64())
	}
	nextPool := cycle(rng, len(pool))
	nextKernel := cycle(rng, len(benches))
	nextKind := cycle(rng, len(freshKinds))
	out := make([]plannedJob, 0, n)
	poolFirst := false
	for i := range n {
		if i%2 == 0 {
			poolFirst = rng.Float64() < 0.5
		}
		if (i%2 == 0) == poolFirst {
			p := nextPool()
			out = append(out, plannedJob{kind: poolKinds[p%len(poolKinds)], pool: p, spec: pool[p]})
			continue
		}
		b, kind := benches[nextKernel()], freshKinds[nextKind()]
		in := b.RandomInputScaled(rng, freshInputFrac)
		out = append(out, plannedJob{kind: kind, pool: -1, spec: jobSpec(kind, b.Name, in, rng.Uint64())})
	}
	return out
}

// cycle returns a generator of indices in [0, n) that walks successive
// seeded permutations, so every n consecutive draws cover each index once.
func cycle(rng *xrand.RNG, n int) func() int {
	var perm []int
	return func() int {
		if len(perm) == 0 {
			perm = rng.Perm(n)
		}
		i := perm[0]
		perm = perm[1:]
		return i
	}
}

// liveServer is a peppaxd server behind a loopback listener.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
	conns  atomic.Int64
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// startServer starts a server and waits until it answers /healthz.
func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	ls := &liveServer{
		srv: service.New(service.Config{
			Slots: slots, QueueCap: queueCap, Shards: shards,
		}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{Protocols: &protos}},
		served: make(chan struct{}),
	}
	ls.hs = &http.Server{Handler: ls.srv.Handler(), Protocols: &protos}
	go func() {
		defer close(ls.served)
		_ = ls.hs.Serve(countingListener{ln, &ls.conns}) // http.ErrServerClosed after close

	}()
	resp, err := ls.client.Get(ls.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	return ls, nil
}

// close drains the server and waits for its serving goroutine to exit.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Every job has ended by the time a run closes its server, so a drain
	// that times out changes no result; the serving goroutine exits either
	// way once the listener is closed.
	_ = ls.srv.Shutdown(ctx)
	// Close the client side first: the server's Shutdown otherwise waits
	// out its poll interval for the idle HTTP/2 connection.
	ls.client.CloseIdleConnections()
	_ = ls.hs.Shutdown(ctx)
	<-ls.served
}

// jobOutcome is what the client observed of one job.
type jobOutcome struct {
	due, sent, started, done time.Time
	res                      *service.JobResult
	errMsg                   string
	terminal                 bool
}

func (o *jobOutcome) ok() bool { return o.res != nil }

// submit posts one job and reads its event stream to the terminal document.
func (ls *liveServer) submit(spec *service.JobSpec, mangle func([]byte) []byte) jobOutcome {
	var o jobOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		o.errMsg = err.Error()
		return o
	}
	o.sent = time.Now()
	resp, err := ls.client.Post(ls.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.errMsg = err.Error()
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		o.errMsg = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		o.terminal = true // a refusal is complete as sent
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if mangle != nil {
			if line = mangle(line); line == nil {
				continue
			}
		}
		var ev struct {
			Ev     string          `json:"ev"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			o.errMsg = fmt.Sprintf("bad stream line: %v", err)
			return o
		}
		switch ev.Ev {
		case "job.start":
			o.started = time.Now()
		case "job.error":
			o.done, o.terminal, o.errMsg = time.Now(), true, ev.Error
			return o
		case "job.result":
			o.done, o.terminal = time.Now(), true
			var res service.JobResult
			if err := json.Unmarshal(ev.Result, &res); err != nil {
				o.errMsg = fmt.Sprintf("bad job result: %v", err)
				return o
			}
			o.res = &res
			return o
		}
	}
	o.errMsg = "stream ended without a terminal document"
	if err := sc.Err(); err != nil {
		o.errMsg += ": " + err.Error()
	}
	return o
}

// runClosedLoop runs the job sequence on the closed loop's clients, each taking
// the next unsent job after a seeded exponential think time, and waits for
// all of them to end. A job is due when its client finishes thinking.
func (ls *liveServer) runClosedLoop(plan []plannedJob, seed uint64, tr *tracer, mangle func([]byte) []byte) (outs []jobOutcome, start time.Time) {
	outs = make([]jobOutcome, len(plan))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start = time.Now()
	for c := range clients {
		rng := parallel.DeriveRNG(seed, uint64(c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				think := -math.Log(1-rng.Float64()) * float64(thinkMean)
				time.Sleep(time.Duration(think))
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				due := time.Now()
				o := ls.submit(&plan[i].spec, mangle)
				o.due = due
				outs[i] = o
				if tr != nil {
					recordJob(tr, &plan[i], &o)
				}
			}
		}()
	}
	wg.Wait()
	return outs, start
}

// recordJob records a job's spans: the whole job from its due time, the
// queue wait from send to job.start, and the run from job.start on.
func recordJob(tr *tracer, p *plannedJob, o *jobOutcome) {
	end := o.done
	if end.IsZero() {
		end = time.Now()
	}
	attrs := map[string]any{"kind": p.kind, "bench": p.spec.Bench, "pool": p.pool, "ok": o.ok()}
	if o.res != nil {
		attrs["golden_cached"] = o.res.GoldenCached
		attrs["trials"] = o.res.Counts.Trials
		attrs["tokens"] = o.res.Tokens
	}
	id := tr.record("job", 0, o.due, end, attrs)
	if !o.started.IsZero() {
		tr.record("service.queue", id, o.sent, o.started, nil)
		tr.record("service.run", id, o.started, end, nil)
	}
}

// serviceRun is one pass of the job sequence.
type serviceRun struct {
	plan  []plannedJob
	outs  []jobOutcome
	start time.Time
	wall  time.Duration
	conns int64
}

func runLength(cfg config) int {
	if cfg.svc.jobs > 0 {
		return cfg.svc.jobs
	}
	return max(1, int(math.Round(jobsPerSecond*cfg.seconds)))
}

// runPass runs the job sequence against ls.
func runPass(cfg config, ls *liveServer, plan []plannedJob, tr *tracer) serviceRun {
	outs, start := ls.runClosedLoop(plan, cfg.seed, tr, cfg.mangle)
	end := start
	for i := range outs {
		if outs[i].done.After(end) {
			end = outs[i].done
		}
	}
	return serviceRun{plan: plan, outs: outs, start: start, wall: end.Sub(start), conns: ls.conns.Load()}
}

// runService is the service workload.
func runService(cfg config, log io.Writer) (*report, error) {
	var benches []*prog.Benchmark
	ls, setup, err := timeSetup(func() (*liveServer, error) {
		benches = buildKernels(allKernels())
		return startServer()
	}, (*liveServer).close)
	if err != nil {
		return nil, err
	}
	byName := kernelIndex(benches)
	plan := planJobs(cfg.svc.kernels, runLength(cfg))
	rep := newReport()
	untraced := runPass(cfg, ls, plan, nil)
	retainedMB := retainedHeapMB()
	checkService(rep, cfg, ls, byName, untraced, log)
	sdcMean, latencies := jobLatencies(untraced)
	ls.close()
	logf(log, "service: %d jobs from %d clients over %d connection(s), wall %.3fs", len(plan), clients, untraced.conns, untraced.wall.Seconds())
	if !cfg.trace {
		setE2E(rep, log, untraced.wall, setup, retainedMB, sdcMean, latencies)
		return rep, nil
	}

	tr := newTracer()
	ls, err = startServer()
	if err != nil {
		return nil, err
	}
	traced := runPass(cfg, ls, plan, tr)
	ls.close()
	rep.set("prog.build_ms", ms(setup), "ms")
	rep.set("bench.peak_rss_mb", peakRSSMB(), "MB")
	rep.set("bench.trace_overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds()-1, "frac")
	var (
		trials int
		dyn    int64
		lags   []time.Duration
	)
	for i := range traced.outs {
		o := &traced.outs[i]
		lags = append(lags, o.sent.Sub(o.due))
		if o.res != nil {
			trials += o.res.Counts.Trials
			dyn += o.res.Counts.DynInstrs
		}
	}
	rep.set("bench.gen_lag_ms_p95", ms(percentile(lags, 0.95)), "ms")
	rep.set("bench.backlog_end", float64(backlogAtLastSend(traced.outs)), "count")
	setCampaign(rep, trials, dyn, traced.wall)
	serviceLayers(rep, traced)
	// The lower layers are probed on the pool's reference inputs and on
	// each kernel's first fresh input.
	var inputs []probeInput
	seen := map[string]bool{}
	for i := range plan {
		key := fmt.Sprintf("%s/%t", plan[i].spec.Bench, plan[i].pool >= 0)
		if !seen[key] {
			seen[key] = true
			inputs = append(inputs, probeInput{byName[plan[i].spec.Bench], plan[i].spec.Input})
		}
	}
	probeLayers(rep, cfg, inputs, tr)
	if err := probePipeline(rep, cfg, tr); err != nil {
		return nil, err
	}
	probeBaseline(rep, cfg, tr)
	if err := probeShard2(rep, cfg, tr); err != nil {
		return nil, err
	}
	return rep, finishTrace(cfg, tr, rep, log)
}

// backlogAtLastSend counts jobs still open when the last job was sent.
func backlogAtLastSend(outs []jobOutcome) int {
	var last time.Time
	for i := range outs {
		if outs[i].sent.After(last) {
			last = outs[i].sent
		}
	}
	n := 0
	for i := range outs {
		if outs[i].done.IsZero() || outs[i].done.After(last) {
			n++
		}
	}
	return n - 1 // the last job itself
}

// jobLatencies returns the mean SDC rate of a pass's completed jobs and
// every job's latency from its due time; a failed job counts at the pass's
// whole wall, worse than any completed one.
func jobLatencies(r serviceRun) (float64, []time.Duration) {
	var (
		sum       float64
		n         int
		latencies []time.Duration
	)
	for i := range r.outs {
		o := &r.outs[i]
		if !o.ok() {
			latencies = append(latencies, r.wall)
			continue
		}
		latencies = append(latencies, o.done.Sub(o.due))
		sum += o.res.SDC
		n++
	}
	return sum / float64(max(n, 1)), latencies
}

// checkService gates a pass: terminal documents, tallies, repeated specs,
// and one flat campaign per kernel against the in-process campaign.
func checkService(rep *report, cfg config, ls *liveServer, byName map[string]*prog.Benchmark, r serviceRun, log io.Writer) {
	flatByKernel := map[string]int{}
	for i := range r.outs {
		o, p := &r.outs[i], &r.plan[i]
		rep.attempted++
		what := fmt.Sprintf("service job %d (%s %s)", i, p.kind, p.spec.Bench)
		if !o.terminal {
			rep.fail("%s: %s", what, o.errMsg)
		}
		if !o.ok() {
			rep.failed++
			continue
		}
		want := 0
		if p.kind == kindFlat {
			want = p.spec.Trials
			if _, seen := flatByKernel[p.spec.Bench]; !seen {
				flatByKernel[p.spec.Bench] = i
			}
		}
		checkTally(rep, what, o.res.Counts, want)
	}
	var composeMismatches []mismatch
	mismatches, _ := repeatMismatches(r)
	for _, m := range mismatches {
		if m.kind == kindCompose {
			// Known defect: compose profiles are cached per program
			// segment whatever the job's seed, and a job that re-measures
			// a drifted segment replaces the profile every later job
			// composes from, so a repeated compose spec can return a
			// different tally. Reported as compose.repeat_mismatch_frac.
			composeMismatches = append(composeMismatches, m)
			continue
		}
		rep.fail("%s", m.msg)
	}
	if len(composeMismatches) > 0 {
		logf(log, "KNOWN DEFECT: %d compose repeats returned a different tally than their spec's first run; first: %s",
			len(composeMismatches), composeMismatches[0].msg)
	}
	checkAgainstInProcess(rep, cfg, ls, byName, r, flatByKernel)
}

// mismatch is one repeat of a pool spec whose result differs from the
// spec's first result.
type mismatch struct{ kind, msg string }

// repeatMismatches compares every completed repeat of a pool spec with that
// spec's first completed result, and counts the repeats of each kind.
func repeatMismatches(r serviceRun) (out []mismatch, repeats map[string]int) {
	repeats = map[string]int{}
	first := map[int]*service.JobResult{}
	for i := range r.outs {
		o, p := &r.outs[i], &r.plan[i]
		if p.pool < 0 || !o.ok() {
			continue
		}
		f, seen := first[p.pool]
		if !seen {
			first[p.pool] = o.res
			continue
		}
		repeats[p.kind]++
		if f.Counts != o.res.Counts || f.SDC != o.res.SDC || f.Lo != o.res.Lo || f.Hi != o.res.Hi {
			out = append(out, mismatch{p.kind, fmt.Sprintf(
				"service job %d (%s %s): repeat of pool spec %d returned %+v, its first run returned %+v",
				i, p.kind, p.spec.Bench, p.pool, o.res.Counts, f.Counts)})
		}
	}
	return out, repeats
}

// checkAgainstInProcess compares one flat service campaign per kernel with
// campaign.OverallParallel run in-process at the same seed. Kernels the
// run gave no flat job get a seeded check job, sent after the timed
// phase.
func checkAgainstInProcess(rep *report, cfg config, ls *liveServer, byName map[string]*prog.Benchmark, r serviceRun, flatByKernel map[string]int) {
	rng := xrand.New(cfg.seed ^ 0x5eed)
	names := cfg.svc.kernels
	if names == nil {
		names = allKernels()
	}
	for _, name := range names {
		b := byName[name]
		var (
			spec service.JobSpec
			res  *service.JobResult
		)
		if i, ok := flatByKernel[name]; ok {
			spec, res = r.plan[i].spec, r.outs[i].res
		} else {
			spec = jobSpec(kindFlat, name, b.RandomInputScaled(rng, freshInputFrac), rng.Uint64())
			o := ls.submit(&spec, cfg.mangle)
			if !o.ok() {
				rep.fail("service check job %s: %s", name, o.errMsg)
				continue
			}
			res = o.res
		}
		g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(spec.Input), b.MaxDyn, campaign.CheckpointAuto)
		if err != nil {
			rep.fail("service check %s: in-process golden: %v", name, err)
			continue
		}
		c := campaign.OverallParallel(b.Prog, g, spec.Trials, campaign.ParallelOptions{
			Workers: workers, Seed: spec.Seed, BatchSize: spec.Batch,
		})
		if c != res.Counts {
			rep.fail("service campaign %s: tally %+v differs from in-process campaign.OverallParallel %+v at seed %d", name, res.Counts, c, spec.Seed)
		}
	}
}

// serviceLayers records the service, compose and adaptive layer metrics of
// a traced pass.
func serviceLayers(rep *report, r serviceRun) {
	var (
		waits            []time.Duration
		runs             = map[string][]time.Duration{}
		hits, goldens    int
		measured, segs   int
		saved, maxTrials int
	)
	for i := range r.outs {
		o, p := &r.outs[i], &r.plan[i]
		if !o.started.IsZero() {
			waits = append(waits, o.started.Sub(o.sent))
		}
		if !o.ok() {
			continue
		}
		runs[p.kind] = append(runs[p.kind], o.done.Sub(o.started))
		goldens++
		if o.res.GoldenCached {
			hits++
		}
		if s := o.res.Sensitivity; s != nil {
			measured += s.Measured
			segs += s.Segments
		}
		if a := o.res.Adaptive; a != nil {
			saved += a.TrialsSaved
			maxTrials += a.MaxTrials
		}
	}
	rep.set("service.queue_wait_ms_p50", ms(percentile(waits, 0.50)), "ms")
	rep.set("service.queue_wait_ms_p95", ms(percentile(waits, 0.95)), "ms")
	for _, k := range poolKinds {
		rep.set("service.run_ms_p50."+k, ms(percentile(runs[k], 0.50)), "ms")
	}
	rep.set("service.golden_hit_frac", float64(hits)/float64(max(goldens, 1)), "frac")
	rep.set("compose.measured_frac", float64(measured)/float64(max(segs, 1)), "frac")
	rep.set("adaptive.trials_saved_frac", float64(saved)/float64(max(maxTrials, 1)), "frac")
	mismatches, repeats := repeatMismatches(r)
	bad := 0
	for _, m := range mismatches {
		if m.kind == kindCompose {
			bad++
		}
	}
	rep.set("compose.repeat_mismatch_frac", float64(bad)/float64(max(repeats[kindCompose], 1)), "frac")
}
