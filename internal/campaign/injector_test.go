package campaign

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// TestInjectorSerialTrialAllocs gates the serial trial path's allocation
// profile: once an injector has run a plan set (and grown its machine to
// the largest footprint any of them reaches), replaying the set allocates
// nothing but the *Trap of each crashing trial — no per-trial machine, no
// memory growth, no Result. Before the reused injector every serial
// Classify built a fresh machine and re-grew its memory to the snapshot
// size, about 36 KB per trial.
func TestInjectorSerialTrialAllocs(t *testing.T) {
	for _, name := range []string{"pathfinder", "needle", "hpccg"} {
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			g, err := NewGoldenCheckpointed(b.Prog, b.Encode(b.RefInput()), b.MaxDyn, CheckpointAuto)
			if err != nil {
				t.Fatal(err)
			}
			planRNG := xrand.New(11)
			plans := make([]fault.Plan, 64)
			for i := range plans {
				plans[i] = fault.SampleDynamic(planRNG, g.DynCount)
			}
			inj := newInjector(b.Prog, g)
			rng := xrand.New(3)
			start := *rng
			crashes := 0
			for i := range plans {
				if o, _, _ := classify(inj, g, &plans[i], rng, nil); o == Crash {
					crashes++
				}
			}
			allocs := testing.AllocsPerRun(3, func() {
				*rng = start // replay the warm-up's bit draws exactly
				for i := range plans {
					classify(inj, g, &plans[i], rng, nil)
				}
			})
			if allocs > float64(crashes) {
				t.Fatalf("%v allocs per %d replayed trials, %d of which crash; want at most one (the Trap) per crash",
					allocs, len(plans), crashes)
			}
			t.Logf("%v allocs per %d trials, %d warm-up crashes", allocs, len(plans), crashes)
		})
	}
}
