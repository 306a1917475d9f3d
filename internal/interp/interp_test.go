package interp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/xrand"
)

// u64 converts a signed value to its raw slot representation.
func u64(v int64) uint64 { return uint64(v) }

// mustCompile builds and compiles, failing the test on error.
func mustCompile(t testing.TB, m *ir.Module) *Program {
	t.Helper()
	p, err := Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// buildArith: main(a, b i64) i64 { return (a+b)*(a-b) }
func buildArith(t testing.TB) *Program {
	m := ir.NewModule("arith")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64}, &ir.Param{Name: "b", Ty: ir.I64})
	b := ir.NewBuilder(f)
	sum := b.Add(b.Param(0), b.Param(1))
	diff := b.Sub(b.Param(0), b.Param(1))
	b.Ret(b.Mul(sum, diff))
	return mustCompile(t, m)
}

func TestArithmetic(t *testing.T) {
	p := buildArith(t)
	r := Run(p, []uint64{u64(7), u64(3)}, Options{})
	if r.Trap != nil {
		t.Fatalf("trap: %v", r.Trap)
	}
	if got := int64(r.Ret); got != 40 {
		t.Fatalf("(7+3)*(7-3) = %d, want 40", got)
	}
	if r.DynCount != 3 {
		t.Fatalf("dyn count = %d, want 3", r.DynCount)
	}
}

// buildSumLoop: main(n i64) i64 via phi loop.
func buildSumLoop(t testing.TB) *Program {
	m := ir.NewModule("sumloop")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	entry := b.Cur
	loop := b.Block("loop")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, i, b.Param(0)), body, exit)
	b.SetBlock(body)
	s2 := b.Add(s, i)
	i2 := b.Add(i, ir.I64c(1))
	b.Br(loop)
	ir.AddIncoming(i, ir.I64c(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.I64c(0), entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	b.Call(ir.Void, "print_i64", s)
	b.Ret(s)
	return mustCompile(t, m)
}

func TestPhiLoop(t *testing.T) {
	p := buildSumLoop(t)
	r := Run(p, []uint64{100}, Options{})
	if r.Trap != nil {
		t.Fatalf("trap: %v", r.Trap)
	}
	if int64(r.Ret) != 4950 {
		t.Fatalf("sum 0..99 = %d, want 4950", int64(r.Ret))
	}
	if len(r.Output) != 1 || r.Output[0].Int() != 4950 {
		t.Fatalf("output = %v", r.Output)
	}
}

// buildMemory: main(n i64) i64 { a = alloca n; a[i] = i*i; return sum(a) }
func buildMemory(t testing.TB) *Program {
	m := ir.NewModule("memory")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	entry := b.Cur
	n := b.Param(0)
	arr := b.Alloca(n)

	loop1 := b.Block("loop1")
	body1 := b.Block("body1")
	loop2 := b.Block("loop2")
	body2 := b.Block("body2")
	exit := b.Block("exit")

	b.Br(loop1)
	b.SetBlock(loop1)
	i := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, i, n), body1, loop2)
	b.SetBlock(body1)
	b.Store(b.Mul(i, i), b.GEP(arr, i))
	i2 := b.Add(i, ir.I64c(1))
	b.Br(loop1)
	ir.AddIncoming(i, ir.I64c(0), entry)
	ir.AddIncoming(i, i2, body1)

	b.SetBlock(loop2)
	j := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, j, n), body2, exit)
	b.SetBlock(body2)
	s2 := b.Add(s, b.Load(ir.I64, b.GEP(arr, j)))
	j2 := b.Add(j, ir.I64c(1))
	b.Br(loop2)
	ir.AddIncoming(j, ir.I64c(0), loop1)
	ir.AddIncoming(j, j2, body2)
	ir.AddIncoming(s, ir.I64c(0), loop1)
	ir.AddIncoming(s, s2, body2)

	b.SetBlock(exit)
	b.Ret(s)
	return mustCompile(t, m)
}

func TestMemory(t *testing.T) {
	p := buildMemory(t)
	r := Run(p, []uint64{10}, Options{})
	if r.Trap != nil {
		t.Fatalf("trap: %v", r.Trap)
	}
	if int64(r.Ret) != 285 { // sum i^2, i<10
		t.Fatalf("ret = %d, want 285", int64(r.Ret))
	}
}

func TestI32Wraparound(t *testing.T) {
	m := ir.NewModule("wrap")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I32})
	b := ir.NewBuilder(f)
	v := b.Add(b.Param(0), ir.I32c(1))
	b.Ret(b.SExt(v, ir.I64))
	p := mustCompile(t, m)
	r := Run(p, []uint64{ir.CanonInt(ir.I32, uint64(uint32(math.MaxInt32)))}, Options{})
	if int64(r.Ret) != math.MinInt32 {
		t.Fatalf("i32 overflow = %d, want MinInt32", int64(r.Ret))
	}
}

func TestCastsAndFloats(t *testing.T) {
	m := ir.NewModule("casts")
	f := m.NewFunc("main", ir.F64, &ir.Param{Name: "x", Ty: ir.I64})
	b := ir.NewBuilder(f)
	xf := b.SIToFP(b.Param(0))
	sq := b.Call(ir.F64, "sqrt", xf)
	i := b.FPToSI(sq, ir.I64)
	back := b.SIToFP(i)
	b.Ret(b.FMul(back, ir.F64c(2.0)))
	p := mustCompile(t, m)
	r := Run(p, []uint64{u64(16)}, Options{})
	if got := math.Float64frombits(r.Ret); got != 8 {
		t.Fatalf("2*floor(sqrt(16)) = %v, want 8", got)
	}
}

func TestFPToSISemantics(t *testing.T) {
	if fpToSI(ir.I64, math.NaN()) != uint64(1)<<63 {
		t.Fatal("NaN -> i64 should give MinInt64")
	}
	if fpToSI(ir.I64, 1e300) != uint64(1)<<63 {
		t.Fatal("overflow -> i64 should give MinInt64")
	}
	if fpToSI(ir.I32, 1e300) != uint64(uint32(1)<<31) {
		t.Fatal("overflow -> i32 should give MinInt32")
	}
	if int64(fpToSI(ir.I64, -2.9)) != -2 {
		t.Fatal("fptosi truncates toward zero")
	}
}

func TestDivideByZeroTrap(t *testing.T) {
	m := ir.NewModule("div")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64}, &ir.Param{Name: "b", Ty: ir.I64})
	b := ir.NewBuilder(f)
	b.Ret(b.SDiv(b.Param(0), b.Param(1)))
	p := mustCompile(t, m)
	r := Run(p, []uint64{10, 0}, Options{})
	if r.Trap == nil || r.Trap.Kind != TrapDivZero {
		t.Fatalf("want div-zero trap, got %v", r.Trap)
	}
	minInt64 := uint64(1) << 63
	negOne := int64(-1)
	r = Run(p, []uint64{minInt64, uint64(negOne)}, Options{})
	if r.Trap == nil || r.Trap.Kind != TrapDivOverflow {
		t.Fatalf("want div-overflow trap, got %v", r.Trap)
	}
	r = Run(p, []uint64{10, u64(-3)}, Options{})
	if r.Trap != nil || int64(r.Ret) != -3 {
		t.Fatalf("10/-3 = %d, trap %v", int64(r.Ret), r.Trap)
	}
}

func TestOOBTrap(t *testing.T) {
	m := ir.NewModule("oob")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "i", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.AllocaN(4)
	b.Ret(b.Load(ir.I64, b.GEP(arr, b.Param(0))))
	p := mustCompile(t, m)
	if r := Run(p, []uint64{2}, Options{}); r.Trap != nil {
		t.Fatalf("in-bounds load trapped: %v", r.Trap)
	}
	if r := Run(p, []uint64{1 << 40}, Options{}); r.Trap == nil || r.Trap.Kind != TrapOOB {
		t.Fatalf("want OOB trap, got %v", r.Trap)
	}
}

func TestNullTrap(t *testing.T) {
	m := ir.NewModule("null")
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	arr := b.AllocaN(4)
	// GEP back to address 0.
	nullish := b.GEP(arr, ir.I64c(-1))
	b.Ret(b.Load(ir.I64, nullish))
	p := mustCompile(t, m)
	r := Run(p, nil, Options{})
	if r.Trap == nil || r.Trap.Kind != TrapNull {
		t.Fatalf("want null trap, got %v", r.Trap)
	}
}

func TestBadAllocTrap(t *testing.T) {
	m := ir.NewModule("badalloc")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	arr := b.Alloca(b.Param(0))
	b.Ret(b.Load(ir.I64, arr))
	p := mustCompile(t, m)
	if r := Run(p, []uint64{u64(-5)}, Options{}); r.Trap == nil || r.Trap.Kind != TrapBadAlloc {
		t.Fatalf("want bad-alloc trap for negative, got %v", r.Trap)
	}
	if r := Run(p, []uint64{1 << 60}, Options{}); r.Trap == nil || r.Trap.Kind != TrapBadAlloc {
		t.Fatalf("want bad-alloc trap for huge, got %v", r.Trap)
	}
}

func TestHangBudget(t *testing.T) {
	p := buildSumLoop(t)
	r := Run(p, []uint64{1 << 40}, Options{MaxDyn: 10000})
	if !r.BudgetExceeded {
		t.Fatal("want budget exceeded")
	}
	if r.Trap != nil {
		t.Fatalf("budget abort should not be a trap: %v", r.Trap)
	}
}

// buildFactorial tests recursion: fact(n) = n<=1 ? 1 : n*fact(n-1).
func buildFactorial(t testing.TB) *Program {
	m := ir.NewModule("fact")
	fact := m.NewFunc("fact", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(fact)
	base := b.Block("base")
	rec := b.Block("rec")
	b.CondBr(b.ICmp(ir.OpICmpSLE, b.Param(0), ir.I64c(1)), base, rec)
	b.SetBlock(base)
	b.Ret(ir.I64c(1))
	b.SetBlock(rec)
	sub := b.Sub(b.Param(0), ir.I64c(1))
	r := b.Call(ir.I64, "fact", sub)
	b.Ret(b.Mul(b.Param(0), r))

	main := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	mb := ir.NewBuilder(main)
	mb.Ret(mb.Call(ir.I64, "fact", mb.Param(0)))
	return mustCompile(t, m)
}

func TestRecursion(t *testing.T) {
	p := buildFactorial(t)
	r := Run(p, []uint64{10}, Options{})
	if r.Trap != nil || int64(r.Ret) != 3628800 {
		t.Fatalf("10! = %d (trap %v)", int64(r.Ret), r.Trap)
	}
}

func TestStackOverflowTrap(t *testing.T) {
	p := buildFactorial(t)
	r := Run(p, []uint64{1 << 30}, Options{MaxDepth: 100})
	if r.Trap == nil || r.Trap.Kind != TrapStackOverflow {
		t.Fatalf("want stack overflow, got %v", r.Trap)
	}
}

func TestAllocaStackDiscipline(t *testing.T) {
	// Each call allocates; memory must be released on return or the loop
	// would exhaust the limit.
	m := ir.NewModule("stackmem")
	leaf := m.NewFunc("leaf", ir.I64, &ir.Param{Name: "x", Ty: ir.I64})
	lb := ir.NewBuilder(leaf)
	arr := lb.AllocaN(1000)
	lb.Store(lb.Param(0), arr)
	lb.Ret(lb.Load(ir.I64, arr))

	main := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(main)
	entry := b.Cur
	loop := b.Block("loop")
	body := b.Block("body")
	exit := b.Block("exit")
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	s := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, i, b.Param(0)), body, exit)
	b.SetBlock(body)
	v := b.Call(ir.I64, "leaf", i)
	s2 := b.Add(s, v)
	i2 := b.Add(i, ir.I64c(1))
	b.Br(loop)
	ir.AddIncoming(i, ir.I64c(0), entry)
	ir.AddIncoming(i, i2, body)
	ir.AddIncoming(s, ir.I64c(0), entry)
	ir.AddIncoming(s, s2, body)
	b.SetBlock(exit)
	b.Ret(s)
	p := mustCompile(t, m)
	// 100k iterations x 1000 words would need 100M words without stack
	// discipline; the limit below allows only one live frame at a time.
	r := Run(p, []uint64{100000}, Options{MaxMemWords: 2048})
	if r.Trap != nil {
		t.Fatalf("stack discipline broken: %v", r.Trap)
	}
	if int64(r.Ret) != 100000*99999/2 {
		t.Fatalf("ret = %d", int64(r.Ret))
	}
}

func TestProfileCountsAndCoverage(t *testing.T) {
	p := buildSumLoop(t)
	r := Run(p, []uint64{50}, Options{Profile: true})
	if r.InstrCounts == nil {
		t.Fatal("no counts with Profile")
	}
	var total int64
	for _, c := range r.InstrCounts {
		total += c
	}
	if total != r.DynCount {
		t.Fatalf("counts sum %d != dyn %d", total, r.DynCount)
	}
	if cov := r.Coverage(p.NumInstrs()); cov != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", cov)
	}
	// n=0: loop body never executes -> partial coverage.
	r0 := Run(p, []uint64{0}, Options{Profile: true})
	if cov := r0.Coverage(p.NumInstrs()); cov >= 1.0 || cov <= 0 {
		t.Fatalf("n=0 coverage = %v, want partial", cov)
	}
}

func TestDeterminism(t *testing.T) {
	p := buildMemory(t)
	r1 := Run(p, []uint64{37}, Options{Profile: true})
	r2 := Run(p, []uint64{37}, Options{Profile: true})
	if r1.Ret != r2.Ret || r1.DynCount != r2.DynCount {
		t.Fatal("nondeterministic execution")
	}
	if !OutputEqual(r1.Output, r2.Output) {
		t.Fatal("nondeterministic output")
	}
}

func TestFaultInjectionDynamic(t *testing.T) {
	p := buildSumLoop(t)
	golden := Run(p, []uint64{50}, Options{})
	// Flip bit 0 of the first dynamic instruction and check the fault
	// machinery reports activation.
	plan := &fault.Plan{Mode: fault.ModeDynamic, TargetDyn: 1, Bit: 0}
	r := Run(p, []uint64{50}, Options{Plan: plan, MaxDyn: golden.DynCount * 3})
	if !r.Injected {
		t.Fatal("fault not injected")
	}
	// Target beyond the run: not activated.
	plan2 := &fault.Plan{Mode: fault.ModeDynamic, TargetDyn: golden.DynCount + 100, Bit: 0}
	r2 := Run(p, []uint64{50}, Options{Plan: plan2, MaxDyn: golden.DynCount * 3})
	if r2.Injected {
		t.Fatal("fault beyond run length should not activate")
	}
	if r2.Ret != golden.Ret {
		t.Fatal("non-activated fault changed the result")
	}
}

func TestFaultInjectionChangesOutput(t *testing.T) {
	p := buildSumLoop(t)
	golden := Run(p, []uint64{50}, Options{})
	rng := xrand.New(7)
	sdc := 0
	for trial := 0; trial < 200; trial++ {
		plan := fault.SampleDynamic(rng, golden.DynCount)
		r := Run(p, []uint64{50}, Options{Plan: &plan, MaxDyn: golden.DynCount*3 + 1000, FaultRNG: rng})
		if !r.Injected {
			t.Fatalf("trial %d: fault at dyn %d not injected", trial, plan.TargetDyn)
		}
		if r.Trap == nil && !r.BudgetExceeded && !OutputEqual(golden.Output, r.Output) {
			sdc++
		}
	}
	if sdc == 0 {
		t.Fatal("200 random flips in a sum loop produced no SDC; injection broken")
	}
}

func TestFaultInjectionStatic(t *testing.T) {
	p := buildSumLoop(t)
	golden := Run(p, []uint64{50}, Options{Profile: true})
	// Find the static ID of an add instruction via profile counts (the two
	// adds execute 50 times each).
	target := -1
	for id, c := range golden.InstrCounts {
		if c == 50 && p.InstrType(id) == ir.I64 {
			target = id
			break
		}
	}
	if target < 0 {
		t.Fatal("no 50-count i64 instruction found")
	}
	plan := &fault.Plan{Mode: fault.ModeStatic, StaticID: target, Occurrence: 25, Bit: 3}
	r := Run(p, []uint64{50}, Options{Plan: plan, MaxDyn: golden.DynCount * 3})
	if !r.Injected || r.InjectedID != target {
		t.Fatalf("static injection failed: injected=%v id=%d", r.Injected, r.InjectedID)
	}
}

func TestFlippedCmpTakesWrongLegalBranch(t *testing.T) {
	// Flipping an i1 compare result must steer the branch, not crash —
	// the "legal but wrong branch" of the fault model.
	m := ir.NewModule("branch")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64})
	b := ir.NewBuilder(f)
	yes := b.Block("yes")
	no := b.Block("no")
	cmp := b.ICmp(ir.OpICmpSGT, b.Param(0), ir.I64c(10))
	b.CondBr(cmp, yes, no)
	b.SetBlock(yes)
	b.Ret(ir.I64c(1))
	b.SetBlock(no)
	b.Ret(ir.I64c(0))
	p := mustCompile(t, m)

	golden := Run(p, []uint64{42}, Options{})
	if golden.Ret != 1 {
		t.Fatal("golden should take yes")
	}
	plan := &fault.Plan{Mode: fault.ModeDynamic, TargetDyn: 1, Bit: 0} // the cmp
	r := Run(p, []uint64{42}, Options{Plan: plan})
	if r.Trap != nil {
		t.Fatalf("flipped branch crashed: %v", r.Trap)
	}
	if r.Ret != 0 {
		t.Fatalf("flipped cmp ret = %d, want 0", r.Ret)
	}
}

func TestPointerFlipCausesCrash(t *testing.T) {
	// High-bit flips in a pointer should frequently trap OOB.
	m := ir.NewModule("ptr")
	f := m.NewFunc("main", ir.I64)
	b := ir.NewBuilder(f)
	arr := b.AllocaN(8)
	p2 := b.GEP(arr, ir.I64c(2))
	b.Store(ir.I64c(99), p2)
	b.Ret(b.Load(ir.I64, p2))
	p := mustCompile(t, m)
	// Dyn instrs: alloca(1), gep(2), load(3). Store is void. Flip bit 40 of
	// the GEP result.
	plan := &fault.Plan{Mode: fault.ModeDynamic, TargetDyn: 2, Bit: 40}
	r := Run(p, nil, Options{Plan: plan})
	if r.Trap == nil || r.Trap.Kind != TrapOOB {
		t.Fatalf("want OOB from pointer flip, got %v", r.Trap)
	}
}

func TestSelectAndLogicOps(t *testing.T) {
	m := ir.NewModule("logic")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64}, &ir.Param{Name: "b", Ty: ir.I64})
	b := ir.NewBuilder(f)
	x := b.And(b.Param(0), b.Param(1))
	y := b.Or(b.Param(0), b.Param(1))
	z := b.Xor(x, y)
	sh := b.Shl(z, ir.I64c(1))
	back := b.LShr(sh, ir.I64c(1))
	big := b.ICmp(ir.OpICmpSGT, back, ir.I64c(100))
	b.Ret(b.Select(big, back, ir.I64c(-1)))
	p := mustCompile(t, m)
	r := Run(p, []uint64{0xF0, 0x0F}, Options{})
	if int64(r.Ret) != 0xFF {
		t.Fatalf("ret = %d, want 255", int64(r.Ret))
	}
	r = Run(p, []uint64{1, 1}, Options{})
	if int64(r.Ret) != -1 {
		t.Fatalf("ret = %d, want -1", int64(r.Ret))
	}
}

func TestAShrNegative(t *testing.T) {
	m := ir.NewModule("ashr")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "a", Ty: ir.I64})
	b := ir.NewBuilder(f)
	b.Ret(b.AShr(b.Param(0), ir.I64c(2)))
	p := mustCompile(t, m)
	r := Run(p, []uint64{u64(-8)}, Options{})
	if int64(r.Ret) != -2 {
		t.Fatalf("-8 >> 2 = %d, want -2", int64(r.Ret))
	}
}

func TestFCmpNaNOrdered(t *testing.T) {
	m := ir.NewModule("nan")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "x", Ty: ir.F64})
	b := ir.NewBuilder(f)
	// ONE must be false when an operand is NaN.
	ne := b.FCmp(ir.OpFCmpONE, b.Param(0), ir.F64c(1.0))
	b.Ret(b.ZExt(ne, ir.I64))
	p := mustCompile(t, m)
	r := Run(p, []uint64{math.Float64bits(math.NaN())}, Options{})
	if r.Ret != 0 {
		t.Fatal("fcmp.one with NaN should be false")
	}
	r = Run(p, []uint64{math.Float64bits(2.0)}, Options{})
	if r.Ret != 1 {
		t.Fatal("fcmp.one 2 != 1 should be true")
	}
}

func TestIntrinsics(t *testing.T) {
	m := ir.NewModule("intr")
	f := m.NewFunc("main", ir.F64, &ir.Param{Name: "x", Ty: ir.F64})
	b := ir.NewBuilder(f)
	v := b.Call(ir.F64, "pow", b.Call(ir.F64, "fabs", b.Param(0)), ir.F64c(2))
	v = b.Call(ir.F64, "sqrt", v)
	b.Call(ir.Void, "print_f64", v)
	b.Ret(v)
	p := mustCompile(t, m)
	r := Run(p, []uint64{math.Float64bits(-3.0)}, Options{})
	if got := math.Float64frombits(r.Ret); got != 3.0 {
		t.Fatalf("sqrt(|-3|^2) = %v", got)
	}
	if len(r.Output) != 1 || r.Output[0].Float() != 3.0 {
		t.Fatalf("output = %v", r.Output)
	}
}

func TestOutputEqual(t *testing.T) {
	a := []OutVal{{ir.I64, 1}, {ir.F64, math.Float64bits(2)}}
	b := []OutVal{{ir.I64, 1}, {ir.F64, math.Float64bits(2)}}
	if !OutputEqual(a, b) {
		t.Fatal("equal outputs reported unequal")
	}
	b[1].Bits++
	if OutputEqual(a, b) {
		t.Fatal("unequal outputs reported equal")
	}
	if OutputEqual(a, a[:1]) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestRunPanicsOnArgMismatch(t *testing.T) {
	p := buildArith(t)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong arg count")
		}
	}()
	Run(p, []uint64{1}, Options{})
}

func TestTrapKindStrings(t *testing.T) {
	kinds := []TrapKind{TrapNone, TrapOOB, TrapNull, TrapDivZero, TrapDivOverflow, TrapBadAlloc, TrapStackOverflow}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("TrapKind %d string %q (empty or duplicate)", k, s)
		}
		seen[s] = true
	}
	tr := &Trap{Kind: TrapOOB, Fn: "main"}
	if tr.Error() == "" {
		t.Fatal("Trap.Error empty")
	}
}

func TestOutValAccessors(t *testing.T) {
	iv := OutVal{Ty: ir.I64, Bits: u64(-5)}
	if iv.Int() != -5 {
		t.Fatalf("Int = %d", iv.Int())
	}
	fv := OutVal{Ty: ir.F64, Bits: math.Float64bits(2.5)}
	if fv.Float() != 2.5 {
		t.Fatalf("Float = %v", fv.Float())
	}
}

func TestCompileRejectsBadModule(t *testing.T) {
	m := ir.NewModule("bad")
	f := m.NewFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	b.Add(ir.I64c(1), ir.I64c(2)) // unterminated block
	if _, err := Compile(m); err == nil {
		t.Fatal("Compile must run the verifier")
	}
}

func TestCoverageWithoutProfile(t *testing.T) {
	p := buildArith(t)
	r := Run(p, []uint64{1, 2}, Options{})
	if r.Coverage(p.NumInstrs()) != 0 {
		t.Fatal("coverage without profiling should be 0")
	}
}

// TestCompileRejectsUncountedLoops: a loop that produces no value — only
// branches, stores and void calls — never advances the dynamic-instruction
// clock, so no budget could end it; Compile must reject it with an error
// (it hung `peppax -file` before). A loop that counts compiles.
func TestCompileRejectsUncountedLoops(t *testing.T) {
	for name, tc := range map[string]struct {
		body   string
		reject bool
	}{
		"self-branch": {"  br head\nhead:\n  br head\n", true},
		"store-and-call": {"  %p : ptr = alloca(i64 1)\n  br a\na:\n  store(i64 %n, ptr %p)\n  br b\nb:\n" +
			"  call @print_i64(i64 %n)\n  condbr(i1 %c) a, done\ndone:\n  ret()\n", true},
		"counted": {"  br head\nhead:\n  %i : i64 = phi([i64 0, entry], [i64 %j, head])\n  %j : i64 = add(i64 %i, i64 1)\n" +
			"  %d : i1 = icmp.slt(i64 %j, i64 %n)\n  condbr(i1 %d) head, done\ndone:\n  ret()\n", false},
	} {
		src := "module m\nentry main\n\nfunc @main(i64 %n, i1 %c) void {\nentry:\n" + tc.body + "}\n"
		m, err := ir.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = Compile(m)
		if tc.reject && (err == nil || !strings.Contains(err.Error(), "no dynamic-instruction budget")) {
			t.Fatalf("%s: Compile error %v, want the uncounted-loop rejection", name, err)
		}
		if !tc.reject && err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
