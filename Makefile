# Tier-1 verification targets. `make ci` runs everything the GitHub CI
# workflow runs (.github/workflows/ci.yml executes these same targets).

GO ?= go

.PHONY: build lint test test-short race bench-smoke bench-workers test-telemetry test-observability test-checkpoint bench-fi bench-regression test-fusion bench-fitness test-adaptive test-compose bench-compose test-service test-fuzz bench-shard e2e-service report profile ci

build:
	$(GO) build ./...

# vet plus gofmt gating: fail if any file needs reformatting.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detect the internal packages; -short skips the FI-heavy validity
# tests but keeps every parallel-layer test (worker-count equivalence, the
# shared-RNG tripwire) and the checkpoint/injector suite — campaign workers
# restore their reused Injectors from shared snapshot pages concurrently, so
# the Checkpoint|RunFrom|Snapshot|Injector tests must stay inside the race
# scope.
race:
	$(GO) test -race -short ./internal/...

# Compile and enter every benchmark once without measuring.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Measure the Workers=1 vs Workers=4 pairs (meaningful on multi-core).
bench-workers:
	$(GO) test -bench=Workers -benchtime=3x -run='^$$' .

# Checkpointed-execution equivalence gate: every resumed FI trial, and
# every trial of a reused Injector, must be bit-identical to a from-scratch
# one, at the interpreter, campaign and parallel layers; snapshot pages are
# shared exactly when their contents are equal, taint runs reject
# profiling and checkpointing, and the Injector tests also gate the serial
# trial path's steady-state allocations; every trial that ends early at
# the convergence stop must finish, re-run to the end on a fresh machine and
# on the reference interpreter, as a Benign run with its DynCount, return
# value and output. The gate fails if the regex stops
# matching any test in either package (go test would otherwise report "no
# tests to run" and pass).
test-checkpoint:
	@re='Checkpoint|RunFrom|Snapshot|Injector|Converge'; \
	for pkg in ./internal/interp ./internal/campaign; do \
		$(GO) test -list "$$re" $$pkg | grep -q '^Test' || \
			{ echo "test-checkpoint: no test in $$pkg matches $$re"; exit 1; }; \
	done; \
	$(GO) test -count=1 -run "$$re" ./internal/interp ./internal/campaign

# Measure golden-run and 1000-trial campaign throughput — from scratch and
# resuming per-trial from golden-prefix snapshots — and render the
# machine-readable BENCH_fi.json artifact (per-benchmark ns/op, dyn/op,
# skipped/op, converged/op and the scratch/checkpointed campaign speedup).
bench-fi:
	$(GO) test -run='^$$' -bench='Benchmark(Overall|Golden)' -benchtime=3x \
		./internal/interp | tee BENCH_fi.txt
	$(GO) run ./cmd/benchjson < BENCH_fi.txt > BENCH_fi.json
	@echo "wrote BENCH_fi.json"

# CI bench-regression gate: re-run the bench-fi suite at the -benchtime=3x
# that made the committed BENCH_fi.json (so like is compared with like) and
# the bench-compose and bench-shard suites once (their metrics are
# instruction counts), and fail if any per-benchmark speedup in the
# committed BENCH_*.json regressed by more than TOLERANCE, or if the dyn/op,
# skipped/op or converged/op of any benchmark present in both reports
# differs at all. Speedup ratios cancel absolute host speed, and the exact
# metrics count instructions and trials, so the committed baselines are
# comparable across machines.
TOLERANCE ?= 0.15
bench-regression:
	$(GO) test -run='^$$' -bench='Benchmark(Overall|Golden)' -benchtime=3x \
		./internal/interp | tee BENCH_fi.new.txt
	$(GO) run ./cmd/benchjson < BENCH_fi.new.txt > BENCH_fi.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_fi.json BENCH_fi.new.json -tolerance $(TOLERANCE)
	$(GO) test -run='^$$' -bench=BenchmarkSensitivityCompose -benchtime=1x \
		./internal/sensitivity | tee BENCH_compose.new.txt
	$(GO) run ./cmd/benchjson < BENCH_compose.new.txt > BENCH_compose.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_compose.json BENCH_compose.new.json -tolerance $(TOLERANCE)
	$(GO) test -run='^$$' -bench='BenchmarkService(Shard|Golden)' -benchtime=1x \
		./internal/service | tee BENCH_shard.new.txt
	$(GO) run ./cmd/benchjson < BENCH_shard.new.txt > BENCH_shard.new.json
	$(GO) run ./cmd/benchjson -compare BENCH_shard.json BENCH_shard.new.json -tolerance $(TOLERANCE)

# Engine equivalence gate: profiled runs, block-counting Profiler runs and
# faulted runs, all on the one production loop (runFast) over the fused
# code, must be bit-identical to the test-only reference interpreter
# (internal/interp/interptest) —
# outputs, dynamic counts, traps, per-instruction vectors, injection sites —
# at the interpreter, benchmark and full-pipeline layers — plus the search's
# single-flight fitness memo (one profiled run per distinct candidate, every
# concurrent caller served its serial result). The gate fails if the regex
# stops matching any test in either package (go test would otherwise report
# "no tests to run" and pass).
test-fusion:
	@re='Fusion|BlockProfile|ProfileEquiv|CandidateMemo'; \
	for pkg in ./internal/interp ./internal/core; do \
		$(GO) test -list "$$re" $$pkg | grep -q '^Test' || \
			{ echo "test-fusion: no test in $$pkg matches $$re"; exit 1; }; \
	done; \
	$(GO) test -count=1 -run "$$re" ./internal/interp ./internal/core

# Measure one GA candidate evaluation on the block-counting fused path
# (core.FitnessEval over a reused Profiler) and render the
# machine-readable BENCH_fitness.json artifact (per-benchmark ns/op,
# dyn/op and allocs/op).
bench-fitness:
	$(GO) test -run='^$$' -bench=BenchmarkFitnessProfile -benchtime=200x \
		./internal/interp | tee BENCH_fitness.txt
	$(GO) run ./cmd/benchjson < BENCH_fitness.txt > BENCH_fitness.json
	@echo "wrote BENCH_fitness.json"

# Adaptive stratified FI gate, in two parts: (1) the adaptive-vs-full
# equivalence suite — on >=5/7 benchmarks the composed stratified estimate
# must land inside the full 1000-trial campaign's Wilson interval while
# spending >=30% fewer trials — plus worker invariance (bit-identical
# results at workers 1/4) and the Wilson-interval
# property tests; (2) the core/experiments threading tests (adaptive final
# campaign, adaptive baseline, rejection bound).
test-adaptive:
	$(GO) test -count=1 -run 'Adaptive|BuildStrata|Wilson|PercentileOfValue|RandomSearchBoundsRejections' \
		./internal/campaign ./internal/stats ./internal/core ./internal/experiments

# Compositional-estimation gate, in two parts: (1) the compose test suite —
# partition coverage, cache reuse/staleness, the 7-benchmark equivalence
# check (composed estimate inside the direct campaign's 95% Wilson
# interval) and exact-reuse bit-identity at workers 1/4 —
# plus the sensitivity/core/experiments threading tests and the benchjson
# compose_speedup tests; (2) end-to-end trace determinism — the same
# fi -compose run at 1 and 4 workers must write byte-identical JSONL.
test-compose:
	$(GO) test -count=1 -run 'Compose' \
		./internal/compose ./internal/sensitivity ./internal/core \
		./internal/experiments ./cmd/benchjson
	$(GO) build -o bin/fi ./cmd/fi
	./bin/fi -bench needle -trials 300 -compose -seed 7 -parallel 1 \
		-trace compose-w1.jsonl > /dev/null
	./bin/fi -bench needle -trials 300 -compose -seed 7 -parallel 4 \
		-trace compose-w4.jsonl > /dev/null
	grep -c '"ev":"compose.profile"' compose-w1.jsonl > /dev/null
	cmp compose-w1.jsonl compose-w4.jsonl
	@echo "compose traces byte-identical across worker counts"

# Measure scratch vs incremental (compositional) sensitivity derivation
# over a GA-like input sequence and render BENCH_compose.json
# (per-benchmark dyn/op and the scratch/incremental compose_speedup).
# dyn/op is deterministic, so -benchtime=1x is exact, and the committed
# speedups are host-independent.
bench-compose:
	$(GO) test -run='^$$' -bench=BenchmarkSensitivityCompose -benchtime=1x \
		./internal/sensitivity | tee BENCH_compose.txt
	$(GO) run ./cmd/benchjson < BENCH_compose.txt > BENCH_compose.json
	@echo "wrote BENCH_compose.json"

# Sharded-service gate: the shard/merge equivalence suite (bit-identical
# tallies at shards 1/2/4 × workers 1/4 on all benchmarks, the
# adaptive sharded-runner equivalence, cancellation honesty), the peppaxd
# service tests (campaign/adaptive/sensitivity jobs vs in-process,
# single-flight golden cache, profile sharing, 429 backpressure, peer shard
# dispatch + fallback, graceful drain, token budgets), and the benchjson
# shard_speedup/cache_elimination tests.
test-service:
	$(GO) test -count=1 -run 'Shard|CountsMerge|Service' \
		./internal/campaign ./internal/service ./cmd/benchjson ./cmd/peppaxd

# Rare-branch fuzzing + fault-model gate: the fuzz engine unit suite, the
# fixed-seed fuzz-vs-naive coverage parity acceptance test (the guided
# fuzzer must reach the 0.95×max coverage target in fewer evaluations than
# the naive widening-range fuzzer on >= 5 benchmarks), the fault-model
# registry/corruption tests, the determinism matrix (every model
# bit-identical at workers 1/4 × shards 1/2; the default
# single-flip path pinned byte-identical to the pre-interface behaviour),
# and a bounded native-fuzzing run of the engine against the reference
# interpreter on random verified modules — profiled, profiler, checkpointed
# golden, and per plan a fresh trial, an Injector trial resumed from the
# golden's snapshots and a taint-tracking trial (failing inputs land in
# internal/interp/testdata/fuzz as regression fixtures) — plus a bounded
# native-fuzzing run of the `peppax -file -spec` loader, prog.LoadCustom,
# which must return an error or a runnable Benchmark, never panic (fixtures
# in internal/prog/testdata/fuzz).
test-fuzz:
	$(GO) test -count=1 ./internal/fuzz
	$(GO) test -count=1 -run 'Fuzz' ./internal/core
	$(GO) test -count=1 ./internal/fault
	$(GO) test -count=1 -run 'FaultModelDeterminismMatrix|DefaultModelMatchesHistoricalPath' \
		./internal/campaign
	$(GO) test -count=1 -run '^$$' -fuzz '^FuzzEngineMatchesReference$$' -fuzztime 30s \
		./internal/interp
	$(GO) test -count=1 -run '^$$' -fuzz '^FuzzLoadCustom$$' -fuzztime 30s \
		./internal/prog

# Measure the deterministic shard critical path (dyncrit/op at 1 vs 2
# shards) and the golden-cache setup elimination (cold vs warm setupdyn/op),
# and render BENCH_shard.json. Both metrics are dynamic-instruction counts,
# so -benchtime=1x is exact and the committed ratios are host-independent.
bench-shard:
	$(GO) test -run='^$$' -bench='BenchmarkService(Shard|Golden)' -benchtime=1x \
		./internal/service | tee BENCH_shard.txt
	$(GO) run ./cmd/benchjson < BENCH_shard.txt > BENCH_shard.json
	@echo "wrote BENCH_shard.json"

# End-to-end service gate: start a real peppaxd, submit the same campaign
# over HTTP (sharded) and in-process, and require byte-identical fi output.
# -checkpoint-interval -1 keeps both outputs summary-free (checkpoint
# summaries describe local execution state the remote renderer cannot see).
# All artifacts (output pair, daemon log) land under $(E2E_DIR), inside the
# gitignored bin/ tree, never at the repo root.
E2E_ADDR ?= 127.0.0.1:9473
E2E_DIR ?= bin/e2e
e2e-service:
	$(GO) build -o bin/peppaxd ./cmd/peppaxd
	$(GO) build -o bin/fi ./cmd/fi
	mkdir -p $(E2E_DIR)
	./bin/peppaxd -addr $(E2E_ADDR) > /dev/null 2> $(E2E_DIR)/peppaxd-e2e.log & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://$(E2E_ADDR)/healthz > /dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	./bin/fi -bench needle -trials 300 -seed 7 -parallel 1 \
		-checkpoint-interval -1 > $(E2E_DIR)/fi-local.txt && \
	./bin/fi -bench needle -trials 300 -seed 7 -parallel 1 \
		-checkpoint-interval -1 -remote http://$(E2E_ADDR) -shards 2 > $(E2E_DIR)/fi-remote.txt && \
	cmp $(E2E_DIR)/fi-local.txt $(E2E_DIR)/fi-remote.txt && \
	curl -sf http://$(E2E_ADDR)/metrics | grep -q '^peppax_service_' ; \
	rc=$$?; kill -TERM $$pid 2> /dev/null; wait $$pid; \
	drain=$$?; [ $$rc -eq 0 ] && [ $$drain -eq 143 ]; rc=$$?; \
	grep -q 'drained, bye' $(E2E_DIR)/peppaxd-e2e.log || rc=1; exit $$rc
	@echo "remote and in-process fi output byte-identical; graceful drain ok"

# Regenerate the full experiment report (report_full.txt/report_full.json
# are generated artifacts, not committed; the default configuration takes
# minutes — add ARGS="-quick" for a fast smoke report).
report:
	$(GO) run ./cmd/experiments $(ARGS) -out report_full.txt -json report_full.json
	@echo "wrote report_full.txt and report_full.json"

# Capture CPU and heap pprof profiles of a representative search run.
profile:
	$(GO) run ./cmd/peppax -bench hpccg -generations 50 -pop 16 \
		-trials 200 -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# End-to-end trace determinism: the same small search, traced at 1 and 4
# workers, must write byte-identical JSONL (the telemetry layer's contract;
# the in-process version is cmd/peppax's TestTelemetryWorkerEquivalence).
# Leaves trace-w1.jsonl behind as a sample artifact.
test-telemetry:
	$(GO) run ./cmd/peppax -bench pathfinder -generations 3 -pop 4 \
		-trials 40 -rep-trials 4 -seed 7 -checkpoints 1,3 -baseline \
		-workers 1 -trace trace-w1.jsonl > /dev/null
	$(GO) run ./cmd/peppax -bench pathfinder -generations 3 -pop 4 \
		-trials 40 -rep-trials 4 -seed 7 -checkpoints 1,3 -baseline \
		-workers 4 -trace trace-w4.jsonl > /dev/null
	cmp trace-w1.jsonl trace-w4.jsonl
	@echo "telemetry traces byte-identical across worker counts"

# Live observability gate, in three parts: (1) the targeted unit tests for
# the Prometheus exposition, the heat events and the recorder lifecycle;
# (2) heat-event determinism end-to-end — the same traced search at 1 and 4
# workers must emit byte-identical heat.topk lines; (3) a live scrape — run
# a search with -metrics-addr on an ephemeral port and curl /healthz and
# /metrics while it executes. Leaves heat-w1.jsonl behind as a sample
# artifact.
test-observability:
	$(GO) test -count=1 -run 'Prom|Metrics|Heat|DropsAndCounts|Freezes|FitnessUniform|NormalizeUniform' \
		./internal/telemetry ./internal/core ./internal/stats ./cmd/peppax
	$(GO) build -o bin/peppax ./cmd/peppax
	./bin/peppax -bench pathfinder -generations 3 -pop 4 -trials 40 \
		-rep-trials 4 -seed 7 -checkpoints 1,3 -baseline -heat-topk 8 \
		-workers 1 -trace heat-w1.jsonl > /dev/null
	./bin/peppax -bench pathfinder -generations 3 -pop 4 -trials 40 \
		-rep-trials 4 -seed 7 -checkpoints 1,3 -baseline -heat-topk 8 \
		-workers 4 -trace heat-w4.jsonl > /dev/null
	grep -c '"ev":"heat.topk"' heat-w1.jsonl > /dev/null
	cmp heat-w1.jsonl heat-w4.jsonl
	@echo "heat traces byte-identical across worker counts"
	./bin/peppax -bench hpccg -generations 2000 -pop 16 -trials 500 \
		-metrics-addr 127.0.0.1:9464 > /dev/null 2> metrics-addr.txt & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:9464/healthz > /dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:9464/healthz | grep -q '"status":"ok"' && \
	curl -sf http://127.0.0.1:9464/metrics | grep -q '^peppax_' ; \
	rc=$$?; kill $$pid 2> /dev/null; wait $$pid 2> /dev/null; exit $$rc
	@echo "live /metrics and /healthz endpoints answered mid-run"

# Every GitHub workflow job's target, in workflow order: build, lint, test,
# race, bench-smoke, fi-checkpoint (test-checkpoint + bench-fi),
# fitness-perf (test-fusion + bench-fitness), test-adaptive, test-compose,
# test-service, e2e-service, test-telemetry, test-observability,
# bench-regression. Keep this list in sync with .github/workflows/ci.yml.
ci: build lint test race bench-smoke test-checkpoint bench-fi test-fusion bench-fitness test-adaptive test-compose test-service e2e-service test-telemetry test-observability bench-regression
