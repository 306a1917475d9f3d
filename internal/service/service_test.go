package service

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/prog"
	"repro/internal/xrand"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec *JobSpec) *JobResult {
	t.Helper()
	cl := &Client{Base: ts.URL}
	res, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServiceCampaignMatchesInProcess: a flat campaign job, at several shard
// counts, must return exactly the tally the in-process campaign computes
// from the same (bench, input, seed, trials).
func TestServiceCampaignMatchesInProcess(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallParallel(b.Prog, g, trials, campaign.ParallelOptions{Workers: 1, Seed: 5})

	_, ts := newTestServer(t, Config{})
	for _, shards := range []int{1, 2, 4} {
		res := submit(t, ts, &JobSpec{
			Kind: KindCampaign, Bench: "pathfinder", Trials: trials, Seed: 5, Shards: shards,
		})
		if res.Counts != want {
			t.Fatalf("shards=%d: service %+v != in-process %+v", shards, res.Counts, want)
		}
		if res.GoldenDyn != g.DynCount {
			t.Fatalf("shards=%d: golden dyn %d != %d", shards, res.GoldenDyn, g.DynCount)
		}
		if res.Tokens <= 0 {
			t.Fatalf("shards=%d: no tokens metered", shards)
		}
	}
}

// TestServiceAdaptiveMatchesInProcess: an adaptive job through the sharded
// runner must match the in-process adaptive campaign bit for bit.
func TestServiceAdaptiveMatchesInProcess(t *testing.T) {
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallAdaptive(b.Prog, g, campaign.AdaptiveOptions{Seed: 9, MaxTrials: 240})

	_, ts := newTestServer(t, Config{})
	res := submit(t, ts, &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: 240, Seed: 9, Shards: 2, Adaptive: true,
	})
	if res.Counts != want.Counts || res.SDC != want.Estimate || res.Lo != want.Lo || res.Hi != want.Hi {
		t.Fatalf("service adaptive %+v (sdc %v [%v, %v]) != in-process %+v (sdc %v [%v, %v])",
			res.Counts, res.SDC, res.Lo, res.Hi, want.Counts, want.Estimate, want.Lo, want.Hi)
	}
	if res.Adaptive == nil || res.Adaptive.Rounds != want.Rounds {
		t.Fatalf("adaptive summary missing or wrong: %+v vs rounds %d", res.Adaptive, want.Rounds)
	}
}

// TestServiceGoldenSingleFlight: K concurrent identical jobs must compute
// the golden run exactly once — everyone else blocks on the in-flight
// computation and reports a cache hit.
func TestServiceGoldenSingleFlight(t *testing.T) {
	const k = 4
	s, ts := newTestServer(t, Config{Slots: k})
	var wg sync.WaitGroup
	results := make([]*JobResult, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := &Client{Base: ts.URL}
			results[i], errs[i] = cl.Submit(context.Background(), &JobSpec{
				Kind: KindCampaign, Bench: "needle", Trials: 40, Seed: 3,
			})
		}(i)
	}
	wg.Wait()
	cachedCount := 0
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].GoldenCached {
			cachedCount++
		}
		if results[i].Counts != results[0].Counts {
			t.Fatalf("job %d tally %+v != job 0 %+v", i, results[i].Counts, results[0].Counts)
		}
	}
	if cachedCount != k-1 {
		t.Fatalf("%d of %d jobs were cache hits, want %d", cachedCount, k, k-1)
	}
	if st := s.cache.goldenStats(); st.Misses != 1 || st.Hits != k-1 {
		t.Fatalf("golden cache stats %+v, want Misses=1 Hits=%d", st, k-1)
	}
}

// TestServiceSensitivityProfileSharing: two sensitivity jobs on the same
// program measure each segment profile once — the second composes entirely
// from the shared cache.
func TestServiceSensitivityProfileSharing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := &JobSpec{Kind: KindSensitivity, Bench: "pathfinder", Trials: 120, Seed: 7}
	first := submit(t, ts, spec)
	if first.Sensitivity == nil || first.Sensitivity.Measured == 0 {
		t.Fatalf("first job measured nothing: %+v", first.Sensitivity)
	}
	second := submit(t, ts, spec)
	if second.Sensitivity == nil {
		t.Fatal("second job has no sensitivity summary")
	}
	if second.Sensitivity.Measured != 0 || second.Sensitivity.Remeasured != 0 {
		t.Fatalf("second job re-measured profiles: %+v", second.Sensitivity)
	}
	if second.Sensitivity.Reused == 0 {
		t.Fatalf("second job reused nothing: %+v", second.Sensitivity)
	}
	if second.SDC != first.SDC || second.Lo != first.Lo || second.Hi != first.Hi {
		t.Fatalf("cached composition diverged: %v [%v, %v] vs %v [%v, %v]",
			second.SDC, second.Lo, second.Hi, first.SDC, first.Lo, first.Hi)
	}
}

// TestServiceSearchJob: a search job runs the full pipeline and reports a
// best input with its measured SDC bound.
func TestServiceSearchJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow under -short")
	}
	_, ts := newTestServer(t, Config{})
	res := submit(t, ts, &JobSpec{
		Kind: KindSearch, Bench: "pathfinder", Seed: 7,
		Generations: 6, PopSize: 6, TrialsPerRep: 4, Trials: 60,
	})
	if res.Search == nil || len(res.Search.BestInput) == 0 {
		t.Fatalf("no search summary: %+v", res)
	}
	if res.Counts.Trials == 0 {
		t.Fatal("no final campaign trials")
	}
	if res.Tokens <= 0 {
		t.Fatal("no tokens metered")
	}
}

// TestServiceBackpressure: with the pool full and the queue full, a new
// submission is refused with 429 + Retry-After instead of queuing unboundedly.
func TestServiceBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Slots: 1, QueueCap: 1})
	s.hold = make(chan struct{})

	done := make(chan error, 2)
	runHeld := func() {
		cl := &Client{Base: ts.URL}
		_, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
		done <- err
	}
	go runHeld() // occupies the slot, blocked on hold
	waitFor(t, func() bool { return s.inflight.Load() == 1 })
	go runHeld() // occupies the queue
	waitFor(t, func() bool { return s.pending.Load() == 2 })

	cl := &Client{Base: ts.URL}
	_, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
	re, ok := err.(*RetryError)
	if !ok {
		t.Fatalf("overflow submission: got %v, want *RetryError", err)
	}
	if re.After < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", re.After)
	}
	if got := s.rec.Counter("service.jobs.rejected"); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(s.hold)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("held job %d failed: %v", i, err)
		}
	}
}

// TestServiceTokenBudget: a job whose spend exceeds its budget is canceled
// and reported as an error, not silently truncated into a success.
func TestServiceTokenBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cl := &Client{Base: ts.URL}
	_, err := cl.Submit(context.Background(), &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: 500, Seed: 1, MaxTokens: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "token budget exceeded") {
		t.Fatalf("budget-blown job: got %v, want token budget error", err)
	}
}

// TestServicePeerShardDispatch: a coordinator with a peer worker must
// produce exactly the unsharded in-process tally, with the peer actually
// executing its shards.
func TestServicePeerShardDispatch(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 40
	}
	worker, workerTS := newTestServer(t, Config{WorkerOnly: true})
	_, coordTS := newTestServer(t, Config{Peers: []string{workerTS.URL}})

	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallParallel(b.Prog, g, trials, campaign.ParallelOptions{Workers: 1, Seed: 13})

	res := submit(t, coordTS, &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: trials, Seed: 13, Shards: 2,
	})
	if res.Counts != want {
		t.Fatalf("peer-sharded %+v != in-process %+v", res.Counts, want)
	}
	if got := worker.rec.Counter("service.shard.trials"); got == 0 {
		t.Fatal("peer worker executed no trials — everything ran locally")
	}
}

// TestServicePeerFallback: a dead peer degrades to local execution with the
// same bit-identical tally.
func TestServicePeerFallback(t *testing.T) {
	_, coordTS := newTestServer(t, Config{Peers: []string{"http://127.0.0.1:1"}})
	b := prog.Build("pathfinder")
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := campaign.OverallParallel(b.Prog, g, 60, campaign.ParallelOptions{Workers: 1, Seed: 21})
	res := submit(t, coordTS, &JobSpec{
		Kind: KindCampaign, Bench: "pathfinder", Trials: 60, Seed: 21, Shards: 2,
	})
	if res.Counts != want {
		t.Fatalf("fallback tally %+v != in-process %+v", res.Counts, want)
	}
}

// TestServiceWorkerOnlyRejectsJobs: worker mode serves /shard but not /jobs.
func TestServiceWorkerOnlyRejectsJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkerOnly: true})
	cl := &Client{Base: ts.URL}
	if _, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 10}); err == nil {
		t.Fatal("worker-only server accepted a job")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestServiceValidation: bad specs are rejected at admission with 400, not
// mid-stream.
func TestServiceValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cl := &Client{Base: ts.URL}
	for _, spec := range []*JobSpec{
		{Kind: "juggle", Bench: "pathfinder"},
		{Kind: KindCampaign, Bench: "no-such-bench"},
	} {
		if _, err := cl.Submit(context.Background(), spec); err == nil {
			t.Fatalf("spec %+v was accepted", spec)
		}
	}

	// Malformed inputs and negative counts are refused with a 400 naming
	// the field, before the job reaches the golden cache. A peer's /shard
	// request keys the same golden memo, so its input is checked the same
	// way.
	for _, c := range []struct{ path, body, field string }{
		{"/jobs", `{"bench":"pathfinder","input":[1,2]}`, "input"},
		{"/jobs", `{"bench":"pathfinder","input":[20,20,7,1e300]}`, "input[3]"},
		{"/jobs", `{"bench":"pathfinder","input":[-5,20,7,10]}`, "input[0]"},
		{"/jobs", `{"bench":"pathfinder","trials":-3}`, "trials"},
		{"/jobs", `{"kind":"search","bench":"needle","trials_per_rep":-1}`, "trials_per_rep"},
		{"/jobs", `{"kind":"search","bench":"needle","generations":-1}`, "generations"},
		{"/jobs", `{"kind":"search","bench":"needle","pop_size":-1}`, "pop_size"},
		{"/jobs", `{"bench":"needle","shards":-2}`, "shards"},
		{"/jobs", `{"bench":"needle","workers":-1}`, "workers"},
		{"/jobs", `{"bench":"needle","batch":-8}`, "batch"},
		{"/shard", `{"bench":"pathfinder","input":[1,2],"lo":0,"hi":4}`, "input"},
		{"/shard", `{"bench":"pathfinder","input":[20,20,7,1e300],"lo":0,"hi":4}`, "input[3]"},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		named := strings.HasPrefix(string(msg), c.field+" ") || strings.HasPrefix(string(msg), c.field+":")
		if resp.StatusCode != http.StatusBadRequest || !named {
			t.Errorf("%s %s: status %d, body %q; want 400 naming %q", c.path, c.body, resp.StatusCode, msg, c.field)
		}
	}
	// JSON cannot carry non-finite numbers, but in-process specs can.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		spec := JobSpec{Bench: "pathfinder", Input: []float64{20, v, 7, 10}}
		if err := s.normalize(&spec); err == nil || !strings.HasPrefix(err.Error(), "input[1] ") {
			t.Errorf("input with %v: err %v, want one naming input[1]", v, err)
		}
	}
}

// TestServiceOversizedBody: a /jobs or /shard body past maxRequestBytes is
// refused with 413 without being buffered, and the server keeps serving.
func TestServiceOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Well-formed JSON, so only the size cap can make decoding fail.
	huge := `{"bench":"pathfinder","input":[` + strings.Repeat("1,", maxRequestBytes) + `1]}`
	for _, path := range []string{"/jobs", "/shard"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got status %d, want 413", path, resp.StatusCode)
		}
	}
	res := submit(t, ts, &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
	if res.Counts.Trials != 20 {
		t.Fatalf("job after oversized bodies ran %d trials, want 20", res.Counts.Trials)
	}
}

// TestServiceValidationAcceptsValidInputs: every kernel's reference input
// and a draw from its widened small range — the two ways perfbench builds
// job inputs — pass admission after a JSON round trip.
func TestServiceValidationAcceptsValidInputs(t *testing.T) {
	s := New(Config{})
	rng := xrand.New(11)
	for _, name := range prog.Names() {
		b := prog.Build(name)
		for _, in := range [][]float64{b.RefInput(), b.RandomInputScaled(rng, 0.3)} {
			body, err := json.Marshal(&JobSpec{Bench: name, Input: in})
			if err != nil {
				t.Fatal(err)
			}
			var spec JobSpec
			if err := json.Unmarshal(body, &spec); err != nil {
				t.Fatal(err)
			}
			if err := s.normalize(&spec); err != nil {
				t.Errorf("%s input %v rejected: %v", name, in, err)
			}
		}
	}
}

// TestServiceShutdownDrain: Shutdown refuses new jobs immediately and waits
// for inflight jobs to finish.
func TestServiceShutdownDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Slots: 1})
	s.hold = make(chan struct{})
	done := make(chan error, 1)
	go func() {
		cl := &Client{Base: ts.URL}
		_, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
		done <- err
	}()
	waitFor(t, func() bool { return s.inflight.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.isDraining() })

	// New submissions bounce with 503 while draining.
	cl := &Client{Base: ts.URL}
	if _, err := cl.Submit(context.Background(), &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 10}); err == nil {
		t.Fatal("draining server accepted a job")
	}

	close(s.hold) // let the inflight job finish
	if err := <-done; err != nil {
		t.Fatalf("inflight job failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServiceMetricsEndpoint: /metrics serves the peppax_service_* gauges.
func TestServiceMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	submit(t, ts, &JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 20, Seed: 1})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{
		"peppax_service_jobs_accepted",
		"peppax_service_jobs_completed",
		"peppax_service_queue_depth",
		"peppax_service_inflight",
		"peppax_service_cache_golden_misses",
		"peppax_service_shard_trials",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

// TestServiceJobPanicIsContained plants a broken golden-cache entry — a
// pathfinder golden carrying needle's snapshots — so the interpreter's
// program-identity check panics inside the job's campaign workers. The
// daemon must survive: the job's stream ends in a single job.error, the
// panic is counted, and the next job runs normally.
func TestServiceJobPanicIsContained(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	nb, ng := plantMismatchedGolden(t, s)

	for _, shards := range []int{1, 2} {
		body, err := json.Marshal(&JobSpec{Kind: KindCampaign, Bench: "pathfinder", Trials: 40, Seed: 3, Workers: 4, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		stream, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
		var last map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("shards=%d: bad final line %q: %v", shards, lines[len(lines)-1], err)
		}
		if last["ev"] != "job.error" || !strings.Contains(last["error"].(string), "job panicked") ||
			!strings.Contains(last["error"].(string), "different program") {
			t.Fatalf("shards=%d: stream does not end in the panic's job.error:\n%s", shards, stream)
		}
		if n := strings.Count(string(stream), `"ev":"job.error"`); n != 1 || strings.Contains(string(stream), `"ev":"job.result"`) {
			t.Fatalf("shards=%d: want exactly one terminal job.error, stream:\n%s", shards, stream)
		}
		if got := s.rec.Counter("service.jobs.panicked"); got != int64(shards) {
			t.Fatalf("shards=%d: service.jobs.panicked = %d", shards, got)
		}
	}

	want := campaign.OverallParallel(nb.Prog, ng, 40, campaign.ParallelOptions{Workers: 1, Seed: 3})
	if res := submit(t, ts, &JobSpec{Kind: KindCampaign, Bench: "needle", Trials: 40, Seed: 3, Workers: 4}); res.Counts != want {
		t.Fatalf("job after the panic: %+v, want %+v", res.Counts, want)
	}
}

// plantMismatchedGolden puts a broken entry into s's golden cache — a
// pathfinder golden carrying needle's snapshots, at the reference input and
// the auto interval — so any campaign on it panics in the interpreter's
// program-identity check. It returns needle's benchmark and healthy golden.
func plantMismatchedGolden(t *testing.T, s *Server) (*prog.Benchmark, *campaign.Golden) {
	t.Helper()
	be := s.cache.bench("pathfinder")
	b := be.b
	g, err := campaign.NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	nb := prog.Build("needle")
	ng, err := campaign.NewGoldenCheckpointed(nb.Prog, nb.Encode(nb.RefInput()), nb.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	g.Checkpoints = ng.Checkpoints
	s.cache.goldens.Get(goldenKey(be.hash, b.RefInput(), campaign.CheckpointAuto, ""), func() (*goldenEntry, error) {
		return &goldenEntry{g: g}, nil
	})
	return nb, ng
}

// TestServiceShardPanicIsContained: a panic while a peer runs a /shard
// request — the planted golden of plantMismatchedGolden — ends the request
// with a 500 that names the panic, is counted, and leaves the worker
// serving the next shard.
func TestServiceShardPanicIsContained(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerOnly: true})
	nb, ng := plantMismatchedGolden(t, s)
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(msg)
	}

	code, msg := post(`{"bench":"pathfinder","seed":3,"lo":0,"hi":20,"workers":2}`)
	if code != http.StatusInternalServerError || !strings.Contains(msg, "shard panicked") ||
		!strings.Contains(msg, "different program") {
		t.Fatalf("planted shard: %d %q, want a 500 naming the panic", code, msg)
	}
	if got := s.rec.Counter("service.shard.panicked"); got != 1 {
		t.Fatalf("service.shard.panicked = %d, want 1", got)
	}

	code, msg = post(`{"bench":"needle","seed":3,"lo":0,"hi":20,"workers":2}`)
	var sr ShardResponse
	if code != http.StatusOK {
		t.Fatalf("shard after the panic: %d %q", code, msg)
	}
	if err := json.Unmarshal([]byte(msg), &sr); err != nil {
		t.Fatal(err)
	}
	if want := campaign.OverallShard(nb.Prog, ng, 0, 20, campaign.ParallelOptions{Workers: 1, Seed: 3}); sr.Counts != want {
		t.Fatalf("shard after the panic: %+v, want %+v", sr.Counts, want)
	}
}
