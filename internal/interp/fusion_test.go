package interp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/interp/interptest"
	"repro/internal/ir"
	"repro/internal/ir/irtest"
	"repro/internal/xrand"
)

// The fast-path equivalence gate (`make test-fusion`): every observable of
// the engine — a profiled Run, a block-counting Profiler run over the same
// fused code, and fault-injected Runs — must be bit-identical to the
// reference interpreter (internal/interp/interptest) at every possible
// abort point. The harness compares return value, output, dynamic count,
// trap, budget flag, detected flag, coverage and the per-instruction count
// vector; fitness must match the per-instruction ground truth to tolerance
// (the counter-order summation associates differently).

type equivHarness struct {
	p      *Program
	prof   *Profiler
	scores []float64
	cs     []float64
}

func newEquivHarness(p *Program, rng *xrand.RNG) *equivHarness {
	scores := make([]float64, p.NumInstrs())
	for i := range scores {
		scores[i] = rng.Float64()
	}
	return &equivHarness{p: p, prof: NewProfiler(p), scores: scores, cs: p.CounterScores(scores)}
}

// check runs the reference interpreter as ground truth and both the
// profiled Run and the Profiler against it, returning the reference result
// (for deriving budget cutoffs).
func (h *equivHarness) check(t *testing.T, label string, args []uint64, maxDyn int64) *interptest.Result {
	t.Helper()
	want := refRun(h.p, args, Options{MaxDyn: maxDyn})
	checkRef(t, label+"/run", Run(h.p, args, Options{Profile: true, MaxDyn: maxDyn}), want)
	r := h.prof.Run(args, maxDyn)
	checkProfileRef(t, label+"/profiler", r, want)
	fit := r.Fitness(h.cs)
	if want.Trap != "" || want.BudgetExceeded || want.DynCount == 0 || want.DetectedFlag {
		if fit != 0 {
			t.Fatalf("%s: failed run fitness %v, want 0", label, fit)
		}
		return want
	}
	var acc float64
	for id, c := range want.Counts {
		acc += h.scores[id] * float64(c)
	}
	refFit := acc / float64(want.DynCount)
	if diff := math.Abs(fit - refFit); diff > 1e-9*math.Max(1, math.Abs(refFit)) {
		t.Fatalf("%s: fitness %v too far from per-instruction ground truth %v", label, fit, refFit)
	}
	return want
}

// countFusedOps tallies superinstruction slots across a program's code
// arrays.
func countFusedOps(p *Program) map[ir.Op]int {
	c := make(map[ir.Op]int)
	for _, cf := range p.funcs {
		for i := range cf.code {
			switch op := cf.code[i].op; op {
			case opFusedCmpBr, opFusedLoadArith, opFusedArithLoad, opFusedArithStore, opFusedArithArith:
				c[op]++
			}
		}
	}
	return c
}

// buildFusedLoadTrap: alloca; gep(arr, i) [fuses with the store]; store;
// load [fuses with the add] — the load is the FIRST sub-op of an
// opFusedLoadArith pair and traps when i is out of bounds (or reaches the
// null word at i = -1).
func buildFusedLoadTrap(t testing.TB) *Program {
	m := ir.NewModule("fusedload")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "i", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.AllocaN(4)
	addr := b.GEP(arr, b.Param(0))
	b.Store(ir.I64c(7), arr)
	v := b.Load(ir.I64, addr)
	b.Ret(b.Add(v, ir.I64c(1)))
	return mustCompile(t, m)
}

// buildFusedArithLoadTrap: gep+load fuse into opFusedArithLoad; the load is
// the SECOND sub-op and traps on a bad index.
func buildFusedArithLoadTrap(t testing.TB) *Program {
	m := ir.NewModule("fusedgepload")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "i", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.AllocaN(4)
	b.Ret(b.Load(ir.I64, b.GEP(arr, b.Param(0))))
	return mustCompile(t, m)
}

// buildFusedStoreTrap: gep+store fuse into opFusedArithStore; the store
// traps on a bad index.
func buildFusedStoreTrap(t testing.TB) *Program {
	m := ir.NewModule("fusedgepstore")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "i", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.AllocaN(4)
	b.Store(ir.I64c(5), b.GEP(arr, b.Param(0)))
	b.Ret(b.Load(ir.I64, arr))
	return mustCompile(t, m)
}

// buildDivTrap: a fused arith pair feeding an (unfusable) sdiv.
func buildDivTrap(t testing.TB) *Program {
	m := ir.NewModule("fuseddiv")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64}, &ir.Param{Name: "b", Ty: ir.I64})
	b := ir.NewBuilder(f)
	num := b.Add(b.Param(0), ir.I64c(0))
	den := b.Sub(b.Param(1), ir.I64c(0))
	b.Ret(b.SDiv(num, den))
	return mustCompile(t, m)
}

// buildDetect: exercises the sdc_detect intrinsic and void calls.
func buildDetect(t testing.TB) *Program {
	m := ir.NewModule("detect")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64})
	b := ir.NewBuilder(f)
	v := b.Mul(b.Param(0), ir.I64c(3))
	b.Call(ir.Void, "sdc_detect")
	b.Call(ir.Void, "print_i64", v)
	b.Ret(v)
	return mustCompile(t, m)
}

// buildBadAlloc: the alloca trap path.
func buildBadAlloc(t testing.TB) *Program {
	m := ir.NewModule("fusedbadalloc")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.Alloca(b.Param(0))
	b.Ret(b.Load(ir.I64, arr))
	return mustCompile(t, m)
}

// TestFusionProducesSuperinstructions asserts the fusion pass actually
// fires — every fused opcode appears somewhere in the white-box suite, and
// code arrays are shorter than their source instruction sequences.
func TestFusionProducesSuperinstructions(t *testing.T) {
	progs := map[string]*Program{
		"sumloop":   buildSumLoop(t),
		"memory":    buildMemory(t),
		"fusedload": buildFusedLoadTrap(t),
		"gepload":   buildFusedArithLoadTrap(t),
		"gepstore":  buildFusedStoreTrap(t),
	}
	total := make(map[ir.Op]int)
	for name, p := range progs {
		counts := countFusedOps(p)
		if len(counts) == 0 {
			t.Errorf("%s: no superinstructions formed", name)
		}
		shorter := false
		for fi, cf := range p.funcs {
			source := 0 // non-phi instructions: the unfused slot count
			for _, b := range p.Mod.Funcs[fi].Blocks {
				for _, in := range b.Instrs {
					if in.Op != ir.OpPhi {
						source++
					}
				}
			}
			if len(cf.code) < source {
				shorter = true
			}
			if len(cf.blockOf) != len(cf.code) || len(cf.blockStart) != int(cf.numBlocks) {
				t.Fatalf("%s/%s: block table sizes inconsistent", name, cf.name)
			}
			for lb, s := range cf.blockStart {
				if cf.blockOf[s] != int32(lb) || (s > 0 && cf.blockOf[s-1] == int32(lb)) {
					t.Fatalf("%s/%s: block %d does not start at pc %d", name, cf.name, lb, s)
				}
			}
		}
		if !shorter {
			t.Errorf("%s: code array not shorter than its source instructions", name)
		}
		for op, n := range counts {
			total[op] += n
		}
	}
	for _, op := range []ir.Op{opFusedCmpBr, opFusedLoadArith, opFusedArithLoad, opFusedArithStore, opFusedArithArith} {
		if total[op] == 0 {
			t.Errorf("fused opcode %#x never formed across the suite", uint8(op))
		}
	}
}

// TestBlockProfileEquivWhiteBox sweeps every dynamic budget cutoff of the
// white-box programs (loops with multi-move phi edges, memory traffic,
// recursion), hitting each possible abort boundary: mid-block, mid-move,
// mid-fused-pair, at call return, and at the very first instruction.
func TestBlockProfileEquivWhiteBox(t *testing.T) {
	rng := xrand.New(42)
	for name, tc := range ckptProgs(t) {
		h := newEquivHarness(tc.p, rng)
		full := h.check(t, name+"/full", tc.args, 0)
		if full.Trap != "" || full.BudgetExceeded {
			t.Fatalf("%s: unexpected failure on full run: %+v", name, full)
		}
		d := full.DynCount
		step := int64(1)
		if testing.Short() && d > 300 {
			step = 7
		}
		for cut := int64(1); cut <= d+1; cut += step {
			h.check(t, fmt.Sprintf("%s/cut%d", name, cut), tc.args, cut)
		}
	}
}

// TestFusionTrapEquiv drives traps through fused pairs (first and second
// sub-op), division, allocation, recursion depth and the detect intrinsic,
// checking the engine agrees with the reference on every observable.
func TestFusionTrapEquiv(t *testing.T) {
	rng := xrand.New(7)
	minInt64 := uint64(1) << 63
	cases := []struct {
		name string
		p    *Program
		args []uint64
		want TrapKind
	}{
		{"load-first-ok", buildFusedLoadTrap(t), []uint64{2}, TrapNone},
		{"load-first-oob", buildFusedLoadTrap(t), []uint64{1 << 40}, TrapOOB},
		{"load-first-null", buildFusedLoadTrap(t), []uint64{u64(-1)}, TrapNull},
		{"load-second-ok", buildFusedArithLoadTrap(t), []uint64{3}, TrapNone},
		{"load-second-oob", buildFusedArithLoadTrap(t), []uint64{1 << 40}, TrapOOB},
		{"load-second-null", buildFusedArithLoadTrap(t), []uint64{u64(-1)}, TrapNull},
		{"store-ok", buildFusedStoreTrap(t), []uint64{1}, TrapNone},
		{"store-oob", buildFusedStoreTrap(t), []uint64{1 << 40}, TrapOOB},
		{"store-null", buildFusedStoreTrap(t), []uint64{u64(-1)}, TrapNull},
		{"div-ok", buildDivTrap(t), []uint64{10, u64(-3)}, TrapNone},
		{"div-zero", buildDivTrap(t), []uint64{10, 0}, TrapDivZero},
		{"div-overflow", buildDivTrap(t), []uint64{minInt64, u64(-1)}, TrapDivOverflow},
		{"bad-alloc", buildBadAlloc(t), []uint64{u64(-5)}, TrapBadAlloc},
		{"stack-overflow", buildFactorial(t), []uint64{1 << 20}, TrapStackOverflow},
		{"detect", buildDetect(t), []uint64{9}, TrapNone},
	}
	for _, tc := range cases {
		h := newEquivHarness(tc.p, rng)
		want := h.check(t, tc.name, tc.args, 0)
		if wantKind := ""; tc.want != TrapNone {
			wantKind = tc.want.String()
			if want.Trap != wantKind {
				t.Errorf("%s: trap %q, want %q", tc.name, want.Trap, wantKind)
			}
		} else if want.Trap != "" {
			t.Errorf("%s: trap %q, want none", tc.name, want.Trap)
		}
		// Sweep cutoffs around the failure point too: aborting before the
		// trap must be a plain budget abort in every engine.
		for _, cut := range []int64{1, want.DynCount / 2, want.DynCount, want.DynCount + 1} {
			if cut > 0 {
				h.check(t, fmt.Sprintf("%s/cut%d", tc.name, cut), tc.args, cut)
			}
		}
	}
	p := buildDetect(t)
	r := NewProfiler(p).Run([]uint64{4}, 0)
	if !r.DetectedFlag || !r.Failed() {
		t.Error("fast path lost the sdc_detect flag, or scored the detected run as usable")
	}
}

// TestBlockProfileEquivRandomModules is the property test over random IR
// modules: block-derived InstrCounts must equal the reference interpreter's
// per-instruction vector for arbitrary well-typed programs, at full runs and at budget
// cutoffs (including cut = dyn, the no-abort boundary).
func TestBlockProfileEquivRandomModules(t *testing.T) {
	rng := xrand.New(0x5eed)
	n := 150
	if testing.Short() {
		n = 30
	}
	for i := 0; i < n; i++ {
		m := irtest.RandomModule(rng)
		p, err := Compile(m)
		if err != nil {
			t.Fatalf("mod%d: compile: %v", i, err)
		}
		h := newEquivHarness(p, rng)
		for trial := 0; trial < 3; trial++ {
			args := []uint64{
				uint64(rng.IntRange(-50, 50)),
				uint64(rng.IntRange(-50, 50)),
				math.Float64bits(rng.Range(-5, 5)),
			}
			label := fmt.Sprintf("mod%d/trial%d", i, trial)
			full := h.check(t, label, args, 0)
			d := full.DynCount
			for _, cut := range []int64{1, d / 2, d - 1, d} {
				if cut > 0 {
					h.check(t, fmt.Sprintf("%s/cut%d", label, cut), args, cut)
				}
			}
		}
	}
}

// TestProfileEquivReuse checks that one Profiler's reused machine state
// (memory is not cleared between runs) cannot leak across runs: fresh
// results stay identical to the reference across differing inputs and
// after aborted runs.
func TestProfileEquivReuse(t *testing.T) {
	p := buildMemory(t)
	pr := NewProfiler(p)
	for i := 0; i < 12; i++ {
		n := uint64(3 + 11*i%40)
		checkProfileRef(t, fmt.Sprintf("reuse run %d", i), pr.Run([]uint64{n}, 0), refRun(p, []uint64{n}, Options{}))
		// Interleave an aborted run: the next clean run must be unaffected.
		if ab := pr.Run([]uint64{n}, 17); !ab.BudgetExceeded {
			t.Fatalf("reuse run %d: cutoff 17 did not exhaust budget", i)
		}
	}
}

// checkInjectionSweep injects a fault at every dynamic index of a run —
// both halves of every fused pair included — and at every occurrence of
// every static instruction, on the engine from scratch, and compares each
// trial with the reference. Fixed-bit plans flip bit 0 (valid for every
// width); a deferred-bit plan per index also checks the RNG draw order.
func checkInjectionSweep(t *testing.T, label string, p *Program, args []uint64) {
	t.Helper()
	golden := refRun(p, args, Options{})
	budget := golden.DynCount*3 + 1000
	try := func(l string, plan fault.Plan, seed uint64) {
		t.Helper()
		opts := Options{Plan: &plan, MaxDyn: budget}
		ref := Options{Plan: &plan, MaxDyn: budget}
		if seed != 0 {
			opts.FaultRNG, ref.FaultRNG = xrand.New(seed), xrand.New(seed)
		}
		want := refRun(p, args, ref)
		if !want.Injected {
			t.Fatalf("%s: plan %v never fired on the reference", l, plan)
		}
		checkRef(t, l, Run(p, args, opts), want)
	}
	for d := int64(1); d <= golden.DynCount; d++ {
		try(label+"/dyn", fault.Plan{Mode: fault.ModeDynamic, TargetDyn: d, Bit: 0}, 0)
		pending := fault.SampleDynamic(xrand.New(uint64(d)), golden.DynCount)
		pending.TargetDyn = d
		try(label+"/dyn-pending", pending, uint64(d)+1)
	}
	for id, n := range golden.Counts {
		for occ := int64(1); occ <= n; occ++ {
			try(label+"/static", fault.Plan{Mode: fault.ModeStatic, StaticID: id, Occurrence: occ, Bit: 0}, 0)
		}
	}
}

// TestFusionInjectionEquiv injects at every dynamic index — the first and
// the second half of every fused pair included — and at every occurrence
// of every static instruction of the white-box programs, comparing each
// faulty Run with the reference interpreter.
func TestFusionInjectionEquiv(t *testing.T) {
	progs := ckptProgs(t)
	for name, tc := range map[string]struct {
		p    *Program
		args []uint64
	}{
		"fusedload": {buildFusedLoadTrap(t), []uint64{2}},
		"gepload":   {buildFusedArithLoadTrap(t), []uint64{3}},
		"gepstore":  {buildFusedStoreTrap(t), []uint64{1}},
		"div":       {buildDivTrap(t), []uint64{10, u64(-3)}},
		"detect":    {buildDetect(t), []uint64{9}},
	} {
		progs[name] = tc
	}
	for name, tc := range progs {
		checkInjectionSweep(t, name, tc.p, tc.args)
	}
}
