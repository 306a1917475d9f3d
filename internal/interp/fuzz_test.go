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
// run and faulted Runs under a dynamic and a static plan. seed picks the
// module (irtest.RandomModule), a, b and x its arguments, cut an optional
// dynamic budget (0: none) and target the injection point. The committed
// corpus under testdata/fuzz runs with every plain `go test`; `make
// test-fuzz` explores beyond it for a bounded time.
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
		for _, plan := range []fault.Plan{dyn, static} {
			opts := Options{Plan: &plan, FaultRNG: xrand.New(seed + 1), MaxDyn: budget}
			ref := opts
			ref.FaultRNG = xrand.New(seed + 1)
			checkRef(t, plan.String(), Run(p, args, opts), refRun(p, args, ref))
		}
	})
}
