package campaign

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/interp/interptest"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// referenceTally classifies OverallParallel's per-trial plans on the
// reference interpreter (internal/interp/interptest) instead of the engine,
// with the same hang budget and the same classification order as
// classify (no detector).
func referenceTally(p *interp.Program, g *Golden, trials int, seed uint64, m fault.Model) Counts {
	var c Counts
	budget := g.DynCount*hangBudgetMultiplier + hangBudgetSlack
	for i := 0; i < trials; i++ {
		rng := trialRNG(seed, i)
		plan := samplePlan(m, rng, g.DynCount)
		r := interptest.Run(p.Mod, g.Input, interptest.Options{Plan: &plan, FaultRNG: rng, MaxDyn: budget})
		c.DynInstrs += r.DynCount
		sameOutput := len(r.Output) == len(g.Output)
		for k := 0; sameOutput && k < len(r.Output); k++ {
			sameOutput = r.Output[k].Ty == g.Output[k].Ty && r.Output[k].Bits == g.Output[k].Bits
		}
		switch {
		case !r.Injected:
			c.Add(Benign)
		case r.DetectedFlag:
			c.Add(Detected)
		case r.Trap != "":
			c.Add(Crash)
		case r.BudgetExceeded:
			c.Add(Hang)
		case !sameOutput:
			c.Add(SDC)
		default:
			c.Add(Benign)
		}
	}
	return c
}

// TestFaultModelDeterminismMatrix is the pluggable-fault-model determinism
// gate: for every registered model, the flat campaign tally must be
// bit-identical across the full execution matrix — workers {1, 4} ×
// shards {1, 2} — because each trial's plan and
// injection randomness derive from (Seed, global trial index) alone,
// regardless of which model samples the plan — and equal to the tally of
// the same plans classified on the reference interpreter.
func TestFaultModelDeterminismMatrix(t *testing.T) {
	trials := 160
	if testing.Short() {
		trials = 48
	}
	for _, name := range []string{"pathfinder", "stencil"} {
		b := prog.Build(name)
		g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fault.Models() {
			m := m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				const seed = 29
				ref := OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: 1, Seed: seed, Model: m})
				if ref.Trials != trials {
					t.Fatalf("reference run completed %d/%d trials", ref.Trials, trials)
				}
				if want := referenceTally(b.Prog, g, trials, seed, m); ref != want {
					t.Fatalf("engine tally %+v, reference interpreter %+v", ref, want)
				}
				for _, shards := range []int{1, 2} {
					for _, workers := range []int{1, 4} {
						got := OverallSharded(b.Prog, g, trials, shards, ParallelOptions{
							Workers: workers, Seed: seed, Model: m,
						})
						if got != ref {
							t.Fatalf("shards=%d workers=%d: %+v, want %+v",
								shards, workers, got, ref)
						}
					}
				}
			})
		}
	}
}

// TestDefaultModelMatchesHistoricalPath pins the Model interface to the
// pre-interface behaviour: a campaign with a nil Model (the historical
// hardcoded single-bit-flip path) and one passing fault.SingleFlip
// explicitly must produce byte-identical tallies, on both the parallel
// per-trial-stream path and the serial shared-stream path.
func TestDefaultModelMatchesHistoricalPath(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	b := prog.Build("particlefilter")
	g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 31
	legacy := OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: 1, Seed: seed})
	for _, workers := range []int{1, 4} {
		explicit := OverallParallel(b.Prog, g, trials, ParallelOptions{
			Workers: workers, Seed: seed, Model: fault.SingleFlip,
		})
		if explicit != legacy {
			t.Fatalf("workers=%d: explicit single-flip %+v != nil-model default %+v",
				workers, explicit, legacy)
		}
	}
	serialNil := OverallModelCtx(nil, b.Prog, g, trials, xrand.New(seed), nil, nil)
	serialExplicit := OverallModelCtx(nil, b.Prog, g, trials, xrand.New(seed), nil, fault.SingleFlip)
	if serialNil != serialExplicit {
		t.Fatalf("serial path diverged: nil model %+v != explicit single-flip %+v",
			serialNil, serialExplicit)
	}
}
