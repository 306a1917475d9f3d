package interp

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/xrand"
)

// mixIDs names the static instructions of buildInjectorMix that the
// isolation test aims targeted faults at.
type mixIDs struct {
	size, j2, k, dup, lateSize int
}

// buildInjectorMix: main(n) sizes an array with an injectable add, fills
// and sums it through fused gep+store / gep+load pairs, runs a pure
// counting loop, duplicates its final multiply behind an sdc_detect check,
// and at the very end allocates a second buffer and re-reads the first
// array — one program on which single faults can grow memory (before or
// after the last checkpoint), trap inside a fused pair, hang, or raise the
// detection flag.
func buildInjectorMix(t testing.TB) (*Program, mixIDs) {
	m := ir.NewModule("injmix")
	f := m.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	b := ir.NewBuilder(f)
	entry := b.Cur
	n := b.Param(0)
	size := b.Add(n, ir.I64c(0))
	arr := b.Alloca(size)

	loop1, body1 := b.Block("loop1"), b.Block("body1")
	loop2, body2 := b.Block("loop2"), b.Block("body2")
	loop3, body3 := b.Block("loop3"), b.Block("body3")
	exit, detect, done := b.Block("exit"), b.Block("detect"), b.Block("done")

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
	b.CondBr(b.ICmp(ir.OpICmpSLT, j, n), body2, loop3)
	b.SetBlock(body2)
	s2 := b.Add(s, b.Load(ir.I64, b.GEP(arr, j)))
	j2 := b.Add(j, ir.I64c(1))
	b.Br(loop2)
	ir.AddIncoming(j, ir.I64c(0), loop1)
	ir.AddIncoming(j, j2, body2)
	ir.AddIncoming(s, ir.I64c(0), loop1)
	ir.AddIncoming(s, s2, body2)

	b.SetBlock(loop3)
	k := b.Phi(ir.I64)
	c := b.Phi(ir.I64)
	b.CondBr(b.ICmp(ir.OpICmpSLT, k, n), body3, exit)
	b.SetBlock(body3)
	k2 := b.Add(k, ir.I64c(1))
	c2 := b.Add(c, ir.I64c(1))
	b.Br(loop3)
	ir.AddIncoming(k, ir.I64c(0), loop2)
	ir.AddIncoming(k, k2, body3)
	ir.AddIncoming(c, s, loop2)
	ir.AddIncoming(c, c2, body3)

	b.SetBlock(exit)
	v := b.Mul(c, ir.I64c(3))
	w := b.Mul(c, ir.I64c(3))
	b.CondBr(b.ICmp(ir.OpICmpNE, v, w), detect, done)
	b.SetBlock(detect)
	b.Call(ir.Void, "sdc_detect")
	b.Br(done)
	b.SetBlock(done)
	lateSize := b.Add(n, ir.I64c(0))
	late := b.Alloca(lateSize)
	b.Store(v, late)
	b.Call(ir.Void, "print_i64", b.Load(ir.I64, late))
	b.Call(ir.Void, "print_i64", b.Load(ir.I64, b.GEP(arr, ir.I64c(1))))
	b.Ret(v)
	p := mustCompile(t, m)
	return p, mixIDs{size: size.ID, j2: j2.ID, k: k.ID, dup: v.ID, lateSize: lateSize.ID}
}

// copyResult detaches a borrowed Result from its Injector.
func copyResult(r *Result) *Result {
	c := *r
	c.Output = append([]OutVal(nil), r.Output...)
	return &c
}

// TestInjectorReuseIsolation runs one Injector over a mixed trial sequence
// — dynamic and static plans, plans before the first checkpoint, a trap in
// the second half of a fused gep+load pair, a hang, corrupted alloca sizes
// that grow memory, sdc_detect raised by a duplicated multiply — each
// followed by ordinary trials, and checks every trial against a fresh-exec
// RunWithCheckpoints and the reference interpreter. Reused memory, slabs,
// output buffer and flags must never leak from one trial into the next, and
// the checkpoint usage counters must match the fresh path's.
func TestInjectorReuseIsolation(t *testing.T) {
	p, ids := buildInjectorMix(t)
	args := []uint64{12}
	const interval = 20
	g := batchGolden(t, p, args, interval)
	gFresh := batchGolden(t, p, args, interval)
	budget := trialBudget(g)

	// The targeted trials, in the order they first run. The first grows the
	// fresh injector's memory right after restoring the last snapshot, which
	// must carry the restored array into the grown memory.
	special := []struct {
		name string
		plan fault.Plan
		want func(r *Result) bool
	}{
		{"grow-late", fault.Plan{Mode: fault.ModeStatic, StaticID: ids.lateSize, Occurrence: 1, Bit: 20},
			func(r *Result) bool { return r.Trap == nil && !r.BudgetExceeded }},
		{"grow", fault.Plan{Mode: fault.ModeStatic, StaticID: ids.size, Occurrence: 1, Bit: 20},
			func(r *Result) bool { return r.Trap == nil && !r.BudgetExceeded }},
		{"fused-trap", fault.Plan{Mode: fault.ModeStatic, StaticID: ids.j2, Occurrence: 5, Bit: 63},
			func(r *Result) bool { return r.Trap != nil && r.Trap.Kind == TrapOOB }},
		{"hang", fault.Plan{Mode: fault.ModeStatic, StaticID: ids.k, Occurrence: 3, Bit: 63},
			func(r *Result) bool { return r.BudgetExceeded }},
		{"detect", fault.Plan{Mode: fault.ModeStatic, StaticID: ids.dup, Occurrence: 1, Bit: 2},
			func(r *Result) bool { return r.DetectedFlag }},
		{"first-instr", fault.Plan{Mode: fault.ModeDynamic, TargetDyn: 1, Bit: 0}, nil},
	}

	type trial struct {
		label string
		plan  fault.Plan
		seed  uint64 // 0: fixed bit, no RNG
		want  func(r *Result) bool
	}
	var ordinary []trial
	for d := int64(1); d <= g.DynCount; d++ {
		ordinary = append(ordinary, trial{label: fmt.Sprintf("dyn%d", d),
			plan: fault.Plan{Mode: fault.ModeDynamic, TargetDyn: d, Bit: 0}})
		pending := fault.SampleDynamic(xrand.New(uint64(d)), g.DynCount)
		pending.TargetDyn = d
		ordinary = append(ordinary, trial{label: fmt.Sprintf("dyn%d-pending", d), plan: pending, seed: uint64(d) + 1})
	}
	for id, n := range g.InstrCounts {
		for occ := int64(1); occ <= n; occ++ {
			ordinary = append(ordinary, trial{label: fmt.Sprintf("static%d#%d", id, occ),
				plan: fault.Plan{Mode: fault.ModeStatic, StaticID: id, Occurrence: occ, Bit: 0}})
		}
	}
	xrand.New(5).Shuffle(len(ordinary), func(a, b int) { ordinary[a], ordinary[b] = ordinary[b], ordinary[a] })
	var seq []trial
	for k, sp := range special {
		seq = append(seq, trial{label: sp.name, plan: sp.plan, want: sp.want}, ordinary[k])
	}
	seq = append(seq, ordinary[len(special):]...)

	inj := NewInjector(p, Options{MaxDyn: budget})
	var fromEntry int
	for _, tr := range seq {
		var rngA, rngB, rngC *xrand.RNG
		if tr.seed != 0 {
			rngA, rngB, rngC = xrand.New(tr.seed), xrand.New(tr.seed), xrand.New(tr.seed)
		}
		if g.Checkpoints.ForPlan(&tr.plan) == nil {
			fromEntry++
		}
		got := copyResult(inj.Run(args, g.Checkpoints, &tr.plan, rngA))
		if tr.want != nil && !tr.want(got) {
			t.Fatalf("%s: targeted fault missed its effect: %+v", tr.label, got)
		}
		want := RunWithCheckpoints(p, args, gFresh.Checkpoints, Options{Plan: &tr.plan, FaultRNG: rngB, MaxDyn: budget})
		sameResult(t, tr.label, want, got)
		checkRef(t, tr.label, got, refRun(p, args, Options{Plan: &tr.plan, FaultRNG: rngC, MaxDyn: budget}))
	}
	if fromEntry == 0 {
		t.Fatal("no trial injected before the first checkpoint")
	}
	if len(inj.e.mem) <= 4096 {
		t.Fatalf("the corrupted alloca never grew the injector's memory (%d words)", len(inj.e.mem))
	}
	if a, b := g.Checkpoints.Stats(), gFresh.Checkpoints.Stats(); a != b {
		t.Fatalf("checkpoint usage diverged: injector %+v, fresh %+v", a, b)
	}
}

// TestInjectorRejectsCampaignOptions pins the option contract.
func TestInjectorRejectsCampaignOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInjector accepted a Profile option")
		}
	}()
	NewInjector(buildSumLoop(t), Options{Profile: true})
}
