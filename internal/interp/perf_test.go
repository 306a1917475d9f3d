package interp_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// The perf suite behind `make bench-fi`: golden-run interpreter throughput,
// checkpointed golden overhead, and the from-scratch vs checkpointed
// campaign comparison that BENCH_fi.json reports. Every benchmark reports
// dyn/op (dynamic instructions interpreted per iteration) so ns/dyn is
// recoverable; campaign benchmarks also report skipped/op, the golden-prefix
// instructions the snapshot schedule saved.

const overallTrials = 1000

// BenchmarkGoldenRun measures plain fault-free execution of each program
// benchmark on its reference input.
func BenchmarkGoldenRun(b *testing.B) {
	for _, name := range prog.Names() {
		b.Run(name, func(b *testing.B) {
			bench := prog.Build(name)
			in := bench.Encode(bench.RefInput())
			var dyn int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := interp.Run(bench.Prog, in, interp.Options{MaxDyn: bench.MaxDyn})
				dyn = r.DynCount
			}
			b.ReportMetric(float64(dyn), "dyn/op")
		})
	}
}

// BenchmarkGoldenCheckpointed measures the same execution while recording
// the auto-tuned snapshot schedule — the overhead side of checkpointing.
func BenchmarkGoldenCheckpointed(b *testing.B) {
	for _, name := range prog.Names() {
		b.Run(name, func(b *testing.B) {
			bench := prog.Build(name)
			in := bench.Encode(bench.RefInput())
			plain := interp.Run(bench.Prog, in, interp.Options{MaxDyn: bench.MaxDyn})
			interval := interp.AutoCheckpointInterval(plain.DynCount)
			var dyn int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := interp.Run(bench.Prog, in, interp.Options{
					Profile: true, CheckpointInterval: interval, MaxDyn: bench.MaxDyn,
				})
				dyn = r.DynCount
			}
			b.ReportMetric(float64(dyn), "dyn/op")
		})
	}
}

// BenchmarkOverall compares a full statistical FI campaign (overallTrials
// single-bit trials, the paper's 1000) across the three execution models:
// from scratch, per-trial resume from golden-prefix snapshots, and lockstep
// batches of trials forked copy-on-write off a shared trunk. The tallies of
// scratch and checkpointed are bit-identical; batched draws its plans from
// per-trial RNG streams (the campaign.OverallParallel contract) so its
// tally differs from the serial ones but is itself deterministic.
// cmd/benchjson derives overall_speedup from the scratch/checkpointed
// ns/op ratio and batch_speedup from checkpointed/batched. checkpointed and
// batched classify against the same auto-spaced checkpointed golden, so
// batch_speedup isolates the lockstep batching itself; every variant runs
// the one fused code array.
func BenchmarkOverall(b *testing.B) {
	b.Run("scratch", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench := prog.Build(name)
				g, err := campaign.NewGolden(bench.Prog, bench.Encode(bench.RefInput()), bench.MaxDyn)
				if err != nil {
					b.Fatal(err)
				}
				benchmarkOverall(b, bench, g)
			})
		}
	})
	b.Run("checkpointed", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench := prog.Build(name)
				g, err := campaign.NewGoldenCheckpointed(bench.Prog, bench.Encode(bench.RefInput()), bench.MaxDyn, campaign.CheckpointAuto)
				if err != nil {
					b.Fatal(err)
				}
				benchmarkOverall(b, bench, g)
			})
		}
	})
	b.Run("batched", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench := prog.Build(name)
				g, err := campaign.NewGoldenCheckpointed(bench.Prog, bench.Encode(bench.RefInput()), bench.MaxDyn, campaign.CheckpointAuto)
				if err != nil {
					b.Fatal(err)
				}
				// Workers: 1 keeps the comparison single-threaded: the ratio
				// to checkpointed then isolates the batching mechanics
				// (shared trunk + COW forks + lean tail loop), not thread
				// parallelism.
				before := g.CheckpointStats()
				var c campaign.Counts
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c = campaign.OverallParallel(bench.Prog, g, overallTrials, campaign.ParallelOptions{
						Workers: 1, Seed: 1, BatchSize: 64,
					})
				}
				b.StopTimer()
				after := g.CheckpointStats()
				b.ReportMetric(float64(c.DynInstrs), "dyn/op")
				b.ReportMetric(float64(after.SkippedDyn-before.SkippedDyn)/float64(b.N), "skipped/op")
				b.ReportMetric(float64(after.Batches-before.Batches)/float64(b.N), "batches/op")
			})
		}
	})
}

// BenchmarkFitnessProfile measures one GA candidate evaluation — a profiled
// reference-input run folded into the §4.2.5 fitness — two ways: perinstr
// is a per-instruction profiled Run followed by a loop over the count
// vector, fused the block-counting Profiler behind core.FitnessEval with its
// counter-space fold. cmd/benchjson derives the per-benchmark
// perinstr/fused speedup for BENCH_fitness.json. allocs/op is reported; the
// fused path must be allocation-free in steady state.
func BenchmarkFitnessProfile(b *testing.B) {
	setup := func(name string) (*prog.Benchmark, []float64) {
		bench := prog.Build(name)
		rng := xrand.New(7)
		scores := make([]float64, bench.Prog.NumInstrs())
		for i := range scores {
			scores[i] = rng.Float64()
		}
		return bench, scores
	}
	b.Run("perinstr", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench, scores := setup(name)
				args := bench.Encode(bench.RefInput())
				var dyn int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := interp.Run(bench.Prog, args, interp.Options{Profile: true, MaxDyn: bench.MaxDyn})
					var acc float64
					for id, n := range r.InstrCounts {
						if n > 0 {
							acc += scores[id] * float64(n)
						}
					}
					sink = acc / float64(r.DynCount)
					dyn = r.DynCount
				}
				b.StopTimer()
				b.ReportMetric(float64(dyn), "dyn/op")
			})
		}
	})
	b.Run("fused", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench, scores := setup(name)
				fe := core.NewFitnessEval(bench, scores)
				in := bench.RefInput()
				var dyn int64
				fe.Eval(in) // warm the pooled profiling context
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink, dyn = fe.Eval(in)
				}
				b.StopTimer()
				b.ReportMetric(float64(dyn), "dyn/op")
			})
		}
	})
}

// sink keeps benchmarked fitness values live.
var sink float64

func benchmarkOverall(b *testing.B, bench *prog.Benchmark, g *campaign.Golden) {
	before := g.CheckpointStats()
	var c campaign.Counts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = campaign.Overall(bench.Prog, g, overallTrials, xrand.New(1))
	}
	b.StopTimer()
	after := g.CheckpointStats()
	b.ReportMetric(float64(c.DynInstrs), "dyn/op")
	b.ReportMetric(float64(after.SkippedDyn-before.SkippedDyn)/float64(b.N), "skipped/op")
}
