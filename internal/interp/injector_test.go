package interp

import (
	"fmt"
	"slices"
	"sync"
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

// checkpointedGolden runs the program with profiling checkpoints at the
// given interval and returns the result (whose Checkpoints carry profiled
// snapshots, like campaign goldens).
func checkpointedGolden(t *testing.T, p *Program, args []uint64, interval int64) *Result {
	t.Helper()
	r := Run(p, args, Options{Profile: true, CheckpointInterval: interval})
	if r.Trap != nil {
		t.Fatalf("golden trapped: %v", r.Trap)
	}
	if len(r.Checkpoints.snaps) == 0 {
		t.Fatal("golden recorded no snapshots")
	}
	return r
}

// trialBudget mirrors the campaign hang budget loosely; the white-box
// programs here are tiny, so a flat slack suffices.
func trialBudget(r *Result) int64 { return r.DynCount*3 + 10000 }

// seededRNG returns a fresh stream for seed, or nil for seed 0 (a plan
// whose bit is already fixed).
func seededRNG(seed uint64) *xrand.RNG {
	if seed == 0 {
		return nil
	}
	return xrand.New(seed)
}

// injectorCase is one Injector trial and the two oracles it must match: a
// fresh-exec RunWithCheckpoints resuming from a second, independently
// recorded golden's snapshots, and the reference interpreter from scratch.
type injectorCase struct {
	p      *Program
	args   []uint64
	fresh  *Checkpoints
	budget int64
}

// check runs plan on inj against c and compares it with both oracles; seed
// feeds each run an identical private RNG (0: none). It returns a detached
// copy of the injector's result.
func (ic injectorCase) check(t *testing.T, label string, inj *Injector, c *Checkpoints, plan fault.Plan, seed uint64) *Result {
	t.Helper()
	got := copyResult(inj.Run(ic.args, c, &plan, seededRNG(seed)))
	ic.compare(t, label, got, plan, seed)
	return got
}

// compare checks an already-run injector trial against both oracles.
func (ic injectorCase) compare(t *testing.T, label string, got *Result, plan fault.Plan, seed uint64) {
	t.Helper()
	want := RunWithCheckpoints(ic.p, ic.args, ic.fresh, Options{Plan: &plan, FaultRNG: seededRNG(seed), MaxDyn: ic.budget})
	sameResult(t, label, want, got)
	checkRef(t, label, got, refRun(ic.p, ic.args, Options{Plan: &plan, FaultRNG: seededRNG(seed), MaxDyn: ic.budget}))
}

// newInjectorCase records two identical checkpointed goldens of p on args:
// the first for the injector under test, the second for the fresh-exec
// oracle, so the two never share snapshot state or usage counters.
func newInjectorCase(t *testing.T, p *Program, args []uint64, interval int64) (*Result, injectorCase) {
	t.Helper()
	g := checkpointedGolden(t, p, args, interval)
	fresh := checkpointedGolden(t, p, args, interval)
	return g, injectorCase{p: p, args: args, fresh: fresh.Checkpoints, budget: trialBudget(g)}
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
	g, ic := newInjectorCase(t, p, []uint64{12}, 20)

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

	inj := NewInjector(p, Options{MaxDyn: ic.budget})
	var fromEntry int
	for _, tr := range seq {
		if g.Checkpoints.ForPlan(&tr.plan) == nil {
			fromEntry++
		}
		got := ic.check(t, tr.label, inj, g.Checkpoints, tr.plan, tr.seed)
		if tr.want != nil && !tr.want(got) {
			t.Fatalf("%s: targeted fault missed its effect: %+v", tr.label, got)
		}
	}
	if fromEntry == 0 {
		t.Fatal("no trial injected before the first checkpoint")
	}
	if len(inj.e.mem) <= 4096 {
		t.Fatalf("the corrupted alloca never grew the injector's memory (%d words)", len(inj.e.mem))
	}
	if a, b := g.Checkpoints.Stats(), ic.fresh.Stats(); a != b {
		t.Fatalf("checkpoint usage diverged: injector %+v, fresh %+v", a, b)
	}
}

// TestInjectorFirstInstructionAfterCheckpoint pins the tightest resume
// geometry: a dynamic injection at snap.dyn+1 — the very first instruction
// executed after a snapshot — must resume from that snapshot and match the
// oracles bit for bit.
func TestInjectorFirstInstructionAfterCheckpoint(t *testing.T) {
	p := buildSumLoop(t)
	g, ic := newInjectorCase(t, p, []uint64{200}, 50)
	inj := NewInjector(p, Options{MaxDyn: ic.budget})
	for _, snap := range g.Checkpoints.snaps {
		// Bit 0 is valid for every result width (cmps are i1).
		plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: snap.dyn + 1, Bit: 0}
		if s := g.Checkpoints.ForPlan(&plan); s != snap {
			t.Fatalf("dyn %d: resumes from the snapshot at %v, want %d", plan.TargetDyn, s, snap.dyn)
		}
		got := ic.check(t, fmt.Sprintf("first-after-%d", snap.dyn), inj, g.Checkpoints, plan, 0)
		if !got.Injected {
			t.Fatalf("dyn %d: fault did not fire", plan.TargetDyn)
		}
	}
}

// TestInjectorSameDynIndexTrials: two back-to-back trials aimed at the same
// dynamic index with deferred fault bits each draw their bit from their own
// RNG stream, so the second trial must not inherit the first one's bit.
func TestInjectorSameDynIndexTrials(t *testing.T) {
	p := buildMemory(t)
	g, ic := newInjectorCase(t, p, []uint64{30}, 40)
	target := g.Checkpoints.snaps[0].dyn + 17
	planRNG := xrand.New(9)
	inj := NewInjector(p, Options{MaxDyn: ic.budget})
	for _, seed := range []uint64{100, 200, 100} {
		plan := fault.SampleDynamic(planRNG, g.DynCount)
		plan.TargetDyn = target // same index, deferred bit drawn per trial
		ic.check(t, fmt.Sprintf("same-dyn-index/seed%d", seed), inj, g.Checkpoints, plan, seed)
	}
}

// TestInjectorEveryDynIndex sweeps every dynamic instruction of small
// programs — including targets before the first snapshot and on the second
// sub-instruction of a fused pair — plus one target past the program's end,
// which never fires, on one reused injector. This is the exactness gate
// for mid-fused-pair injections on the resume path.
func TestInjectorEveryDynIndex(t *testing.T) {
	for name, build := range map[string]func(testing.TB) *Program{
		"sumloop": buildSumLoop, "memory": buildMemory, "factorial": buildFactorial,
	} {
		t.Run(name, func(t *testing.T) {
			p := build(t)
			g, ic := newInjectorCase(t, p, []uint64{16}, 11)
			inj := NewInjector(p, Options{MaxDyn: ic.budget})
			for d := int64(1); d <= g.DynCount+1; d++ {
				// Bit 0 is valid for every result width (cmps are i1).
				plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: d, Bit: 0}
				got := ic.check(t, fmt.Sprintf("dyn%d", d), inj, g.Checkpoints, plan, 0)
				if got.Injected != (d <= g.DynCount) {
					t.Fatalf("dyn%d: injected=%v in a %d-instruction run", d, got.Injected, g.DynCount)
				}
			}
		})
	}
}

// TestInjectorStaticOccurrenceSweep does the same exhaustive sweep for
// static-mode plans: every executed occurrence of every static instruction,
// resumed from the profiled snapshot preceding it.
func TestInjectorStaticOccurrenceSweep(t *testing.T) {
	p := buildSumLoop(t)
	g, ic := newInjectorCase(t, p, []uint64{24}, 15)
	inj := NewInjector(p, Options{MaxDyn: ic.budget})
	resumed := 0
	for id, n := range g.InstrCounts {
		for occ := int64(1); occ <= n; occ++ {
			plan := fault.Plan{Mode: fault.ModeStatic, StaticID: id, Occurrence: occ, Bit: 0}
			if g.Checkpoints.ForPlan(&plan) != nil {
				resumed++
			}
			ic.check(t, fmt.Sprintf("static%d#%d", id, occ), inj, g.Checkpoints, plan, 0)
		}
	}
	if resumed == 0 {
		t.Fatal("no static trial resumed from a snapshot")
	}
}

// TestInjectorConcurrentSharedCheckpoints runs several injectors
// concurrently against the SAME Checkpoints (as campaign workers do) and
// verifies every trial against the oracles and every snapshot's pages,
// frames and registers bit for bit afterwards. Under -race this also
// proves restores never write shared snapshot state.
func TestInjectorConcurrentSharedCheckpoints(t *testing.T) {
	p := buildMemory(t)
	g, ic := newInjectorCase(t, p, []uint64{30}, 40)
	snaps := g.Checkpoints.snaps
	type snapCopy struct {
		pages  [][]uint64
		frames []frame
		regs   []uint64
	}
	before := make([]snapCopy, len(snaps))
	for i, s := range snaps {
		for _, pg := range s.pages {
			before[i].pages = append(before[i].pages, append([]uint64(nil), pg...))
		}
		before[i].frames = append([]frame(nil), s.frames...)
		before[i].regs = append([]uint64(nil), s.regs...)
	}

	plans := make([]fault.Plan, 32)
	for i := range plans {
		plans[i] = fault.SampleDynamic(xrand.New(uint64(i)+1), g.DynCount)
	}
	const workers = 4
	got := make([][]*Result, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inj := NewInjector(p, Options{MaxDyn: ic.budget})
			for i := range plans {
				// Each worker walks the plans from a different offset, so
				// restores of one snapshot overlap across goroutines.
				k := (i + w*len(plans)/workers) % len(plans)
				got[w] = append(got[w], copyResult(inj.Run(ic.args, g.Checkpoints, &plans[k], xrand.New(uint64(k)+77))))
			}
		}()
	}
	wg.Wait()

	for w := range got {
		for i, r := range got[w] {
			k := (i + w*len(plans)/workers) % len(plans)
			ic.compare(t, fmt.Sprintf("worker%d/plan%d", w, k), r, plans[k], uint64(k)+77)
		}
	}
	for i, s := range snaps {
		for j, pg := range s.pages {
			if !slices.Equal(pg, before[i].pages[j]) {
				t.Fatalf("snapshot %d page %d mutated", i, j)
			}
		}
		if !slices.Equal(s.frames, before[i].frames) || !slices.Equal(s.regs, before[i].regs) {
			t.Fatalf("snapshot %d frames or registers mutated", i)
		}
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

// TestInjectorRejectsEachCampaignOption checks that NewInjector refuses
// every option a trial must carry itself or that the lean tail cannot
// honour, one option at a time.
func TestInjectorRejectsEachCampaignOption(t *testing.T) {
	p := buildSumLoop(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"Plan", Options{Plan: &fault.Plan{Mode: fault.ModeDynamic, TargetDyn: 1}}},
		{"FaultRNG", Options{FaultRNG: xrand.New(1)}},
		{"Profile", Options{Profile: true}},
		{"TrackPropagation", Options{TrackPropagation: true}},
		{"CheckpointInterval", Options{CheckpointInterval: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewInjector accepted a %s option", tc.name)
				}
			}()
			NewInjector(p, tc.opts)
		})
	}
}
