package campaign

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/interp/interptest"
	"repro/internal/prog"
)

// TestConvergedTrialsFinishAsGolden is the soundness gate of the
// convergence stop. On every benchmark at its reference input and the auto
// snapshot interval, it runs a few hundred campaign trials on one reused
// Injector and re-runs every trial that ended early at a golden snapshot
// to the end, on a fresh un-checkpointed interp.Run and on the reference
// interpreter. Each must be a Benign run with the early-exited trial's
// DynCount, return value, output and injection site.
func TestConvergedTrialsFinishAsGolden(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	const seed = 41
	total := 0
	for _, name := range prog.Names() {
		b := prog.Build(name)
		g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
		if err != nil {
			t.Fatal(err)
		}
		budget := g.DynCount*hangBudgetMultiplier + hangBudgetSlack
		inj := newInjector(b.Prog, g)
		converged := 0
		var resumedDyn int64 // trial dyn from resume point to end, converged or not
		for i := 0; i < trials; i++ {
			rng := trialRNG(seed, i)
			plan := samplePlan(nil, rng, g.DynCount)
			before := g.CheckpointStats()
			r := inj.Run(g.Input, g.Checkpoints, &plan, rng)
			after := g.CheckpointStats()
			resumedDyn += r.DynCount - (after.SkippedDyn - before.SkippedDyn)
			if after.Converged == before.Converged {
				continue
			}
			converged++

			rng = trialRNG(seed, i)
			plan = samplePlan(nil, rng, g.DynCount)
			full := interp.Run(b.Prog, g.Input, interp.Options{Plan: &plan, FaultRNG: rng, MaxDyn: budget})
			if !full.Injected || full.Trap != nil || full.BudgetExceeded || full.DetectedFlag ||
				!interp.OutputEqual(full.Output, g.Output) {
				t.Fatalf("%s trial %d (%v): converged, but its full run is not Benign: %+v", name, i, plan, full)
			}
			if r.DynCount != full.DynCount || r.Ret != full.Ret || !interp.OutputEqual(r.Output, full.Output) ||
				!r.Injected || r.InjectedID != full.InjectedID || r.InjectedBit != full.InjectedBit ||
				r.Trap != nil || r.BudgetExceeded || r.DetectedFlag {
				t.Fatalf("%s trial %d (%v): converged trial %+v, full run %+v", name, i, plan, r, full)
			}

			rng = trialRNG(seed, i)
			plan = samplePlan(nil, rng, g.DynCount)
			ref := interptest.Run(b.Prog.Mod, g.Input, interptest.Options{Plan: &plan, FaultRNG: rng, MaxDyn: budget})
			if ref.DynCount != r.DynCount || ref.Ret != r.Ret || ref.Trap != "" || ref.BudgetExceeded ||
				ref.DetectedFlag || !ref.Injected || ref.InjectedID != r.InjectedID || ref.InjectedBit != r.InjectedBit ||
				len(ref.Output) != len(r.Output) {
				t.Fatalf("%s trial %d (%v): converged trial %+v, reference run %+v", name, i, plan, r, ref)
			}
			for k, o := range ref.Output {
				if o.Ty != r.Output[k].Ty || o.Bits != r.Output[k].Bits {
					t.Fatalf("%s trial %d (%v): output %d is %v on the reference run, %v on the converged trial",
						name, i, plan, k, o, r.Output[k])
				}
			}
		}
		st := g.CheckpointStats()
		t.Logf("%-14s %4d/%d trials converged, skipping %d of %d resumed dyn (%.1f%%)",
			name, converged, trials, st.ConvergedDyn, resumedDyn, 100*float64(st.ConvergedDyn)/float64(resumedDyn))
		total += converged
	}
	if total == 0 {
		t.Fatal("no trial converged on any benchmark: the test checked nothing")
	}
}
