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
// instructions the snapshot schedule saved, and converged/op, the trials
// that ended early at the convergence stop.

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
// single-bit trials, the paper's 1000) from scratch against per-trial
// resume from golden-prefix snapshots. The two tallies are bit-identical;
// cmd/benchjson derives overall_speedup from the scratch/checkpointed
// ns/op ratio.
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
}

// BenchmarkFitnessProfile measures one GA candidate evaluation — a
// reference-input run of the block-counting Profiler behind
// core.FitnessEval, folded into the §4.2.5 fitness over the counter space —
// on the same runFast loop every golden run and FI trial takes. allocs/op
// is reported; the path must be allocation-free in steady state.
func BenchmarkFitnessProfile(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		for _, name := range prog.Names() {
			b.Run(name, func(b *testing.B) {
				bench := prog.Build(name)
				rng := xrand.New(7)
				scores := make([]float64, bench.Prog.NumInstrs())
				for i := range scores {
					scores[i] = rng.Float64()
				}
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
	b.ReportMetric(float64(after.Converged-before.Converged)/float64(b.N), "converged/op")
}
