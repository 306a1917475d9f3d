package interp

import (
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir/irtest"
	"repro/internal/xrand"
)

// FuzzEngineMatchesReference executes random verified modules on the engine
// and on the reference interpreter (internal/interp/interptest) and
// requires identical behaviour: a profiled Run, a block-counting Profiler
// run, a golden recording snapshots at a small interval derived from cut,
// and, under a dynamic and a static plan, a faulted Run, an Injector trial
// resumed from those snapshots and a TrackPropagation trial (compared on
// its non-taint fields). seed picks the module (irtest.RandomModule), a, b
// and x its arguments, cut an optional dynamic budget (0: none) and the
// snapshot interval, and target the injection point. The committed corpus
// under testdata/fuzz runs with every plain `go test`; `make test-fuzz`
// explores beyond it for a bounded time.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, a, b int64, x float64, cut uint16, target uint32) {
		p, err := Compile(irtest.RandomModule(xrand.New(seed)))
		if err != nil {
			t.Fatalf("generator produced an uncompilable module: %v", err)
		}
		args := []uint64{uint64(a), uint64(b), math.Float64bits(x)}

		full := refRun(p, args, Options{})
		maxDyn := int64(0)
		if cut > 0 {
			maxDyn = 1 + int64(cut)%(full.DynCount+1)
		}
		want := refRun(p, args, Options{MaxDyn: maxDyn})
		checkRef(t, "run", Run(p, args, Options{Profile: true, MaxDyn: maxDyn}), want)
		checkProfileRef(t, "profiler", NewProfiler(p).Run(args, maxDyn), want)

		if full.DynCount == 0 {
			return
		}
		golden := Run(p, args, Options{Profile: true, CheckpointInterval: 1 + int64(cut%32)})
		checkRef(t, "checkpointed", golden, full)
		budget := full.DynCount*3 + 100
		dyn := fault.SampleDynamic(xrand.New(seed), full.DynCount)
		dyn.TargetDyn = 1 + int64(target)%full.DynCount
		var executed []int
		for id, n := range full.Counts {
			if n > 0 {
				executed = append(executed, id)
			}
		}
		id := executed[int(target)%len(executed)]
		static := fault.Plan{Mode: fault.ModeStatic, StaticID: id,
			Occurrence: 1 + int64(target/7)%full.Counts[id], Bit: uint8(target % uint32(p.InstrType(id).Bits()))}
		inj := NewInjector(p, Options{MaxDyn: budget})
		for _, plan := range []fault.Plan{dyn, static} {
			opts := func() Options { return Options{Plan: &plan, FaultRNG: xrand.New(seed + 1), MaxDyn: budget} }
			ref := refRun(p, args, opts())
			checkRef(t, plan.String(), Run(p, args, opts()), ref)
			checkRef(t, plan.String()+"/injector", inj.Run(args, golden.Checkpoints, &plan, xrand.New(seed+1)), ref)
			taint := opts()
			taint.TrackPropagation = true
			checkRef(t, plan.String()+"/taint", RunWithCheckpoints(p, args, golden.Checkpoints, taint), ref)
		}
	})
}
