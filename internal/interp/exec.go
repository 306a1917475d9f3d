package interp

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/xrand"
)

// TrapKind classifies hardware-trap-equivalent failures. Any trap during a
// fault-injection run is classified as a Crash by the campaign layer: "the
// raising of a hardware trap or exception due to the error" (§2.2).
type TrapKind uint8

// Trap kinds.
const (
	TrapNone          TrapKind = iota
	TrapOOB                    // load/store outside mapped memory (segfault)
	TrapNull                   // load/store through the null word
	TrapDivZero                // integer divide/remainder by zero
	TrapDivOverflow            // INT_MIN / -1 (x86 #DE)
	TrapBadAlloc               // negative or over-limit allocation size
	TrapStackOverflow          // call depth exceeded
)

func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapOOB:
		return "out-of-bounds access"
	case TrapNull:
		return "null dereference"
	case TrapDivZero:
		return "division by zero"
	case TrapDivOverflow:
		return "division overflow"
	case TrapBadAlloc:
		return "bad allocation"
	case TrapStackOverflow:
		return "stack overflow"
	default:
		return fmt.Sprintf("trap(%d)", uint8(k))
	}
}

// Trap describes a hardware-trap-equivalent failure.
type Trap struct {
	Kind TrapKind
	Fn   string // function in which the trap occurred
}

func (t *Trap) Error() string { return fmt.Sprintf("trap in %s: %s", t.Fn, t.Kind) }

// OutVal is one value the program printed; the sequence of OutVals is the
// program output whose golden-vs-faulty mismatch defines an SDC.
type OutVal struct {
	Ty   ir.Type
	Bits uint64
}

// Float returns the value as a float (for F64 outputs).
func (o OutVal) Float() float64 { return math.Float64frombits(o.Bits) }

// Int returns the value as a signed integer.
func (o OutVal) Int() int64 { return ir.SignedValue(o.Ty, o.Bits) }

// Options configures one execution.
type Options struct {
	// MaxDyn bounds the number of injectable dynamic instructions; 0 means
	// a large default. Exceeding it aborts the run with BudgetExceeded set,
	// which the campaign layer classifies as a Hang.
	MaxDyn int64
	// MaxMemWords bounds total memory in 8-byte words (default 1<<24).
	MaxMemWords int
	// MaxDepth bounds the call stack (default 512 frames).
	MaxDepth int
	// Profile returns the per-static-instruction execution counts in
	// Result.InstrCounts, folded from the run's block/edge counters.
	Profile bool
	// Plan, when non-nil, injects one single-bit fault during the run.
	Plan *fault.Plan
	// FaultRNG resolves a deferred bit choice (fault.Plan.BitPending) at
	// injection time, once the target instruction's width is known.
	FaultRNG *xrand.RNG
	// TrackPropagation enables dynamic taint tracking of the injected
	// fault: the corrupted value and everything data-dependent on it is
	// traced through registers, memory, calls and output, yielding the
	// Result's Propagation statistics (the raw material of §7.1.1-style
	// error-propagation modelling). Implicit flows are not propagated, but
	// tainted branch decisions are counted. Such runs take the
	// per-instruction loop and cannot also set Profile or
	// CheckpointInterval.
	TrackPropagation bool
	// CheckpointInterval, when positive, records a Snapshot of the complete
	// machine state roughly every CheckpointInterval dynamic instructions
	// (at the next dispatch-slot boundary). The snapshots are returned in
	// Result.Checkpoints; RunWithCheckpoints and Injector use them to resume
	// later fault-injection trials past the shared golden prefix. Combining
	// a CheckpointInterval with a fault Plan panics: snapshots must capture
	// fault-free state.
	CheckpointInterval int64
}

const (
	defaultMaxDyn      = int64(1) << 40
	defaultMaxMemWords = 1 << 24
	defaultMaxDepth    = 512
)

// Result is the outcome of one execution.
type Result struct {
	// Ret is the entry function's return value (0 for void).
	Ret uint64
	// Output is the printed value sequence.
	Output []OutVal
	// DynCount is the number of injectable dynamic instructions executed.
	DynCount int64
	// Trap is non-nil if the run died with a hardware-trap equivalent.
	Trap *Trap
	// BudgetExceeded reports that MaxDyn was hit (hang classification).
	BudgetExceeded bool
	// InstrCounts is the per-static-instruction execution count vector
	// (only when Options.Profile was set).
	InstrCounts []int64
	// Injected reports whether the fault plan's target was reached.
	Injected bool
	// InjectedID is the static instruction that received the fault.
	InjectedID int
	// InjectedBit is the bit position that was flipped.
	InjectedBit uint8
	// DetectedFlag reports that the program's protection instrumentation
	// (the duplication pass) called sdc_detect during the run.
	DetectedFlag bool
	// Propagation carries taint-tracking statistics (only when
	// Options.TrackPropagation was set).
	Propagation *PropagationStats
	// Checkpoints holds the golden-prefix snapshots recorded during the run
	// (only when Options.CheckpointInterval was positive).
	Checkpoints *Checkpoints
}

// PropagationStats summarizes how an injected fault propagated.
type PropagationStats struct {
	// TaintedDyn counts dynamic instructions that produced a corrupted
	// (data-dependent-on-the-fault) value.
	TaintedDyn int64
	// TaintedStatic counts distinct static instructions that ever produced
	// a corrupted value.
	TaintedStatic int
	// TaintedMemWrites counts stores of corrupted values (or through
	// corrupted pointers).
	TaintedMemWrites int64
	// TaintedBranches counts conditional branches whose condition was
	// corrupted — the legal-but-wrong-branch events of the fault model.
	TaintedBranches int64
	// WildStores counts stores whose ADDRESS was corrupted: the value
	// landed at an unintended location and the intended location silently
	// kept stale data, which forward taint cannot see. Any SDC without a
	// tainted output or branch must involve a wild store.
	WildStores int64
	// TaintedOutputs counts printed values that were corrupted.
	TaintedOutputs int
}

// Coverage returns the fraction of injectable static instructions executed
// at least once. Requires a profiled run.
func (r *Result) Coverage(numInstrs int) float64 {
	if r.InstrCounts == nil || numInstrs == 0 {
		return 0
	}
	n := 0
	for _, c := range r.InstrCounts {
		if c > 0 {
			n++
		}
	}
	return float64(n) / float64(numInstrs)
}

// OutputEqual reports whether two output sequences are identical — the SDC
// test between golden and faulty runs.
func OutputEqual(a, b []OutVal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// frame is one call-stack entry: a window [regOff, regOff+nSlots) into the
// exec's register/taint slabs plus the program point to resume at. Frames
// hold offsets rather than slices so that slab reallocation cannot leave a
// frame pointing at stale storage and so the whole stack snapshots with a
// value copy.
type frame struct {
	fi      int32 // index into Program.funcs
	pc      int32 // resume pc; kept current only while the frame is suspended
	regOff  int32 // first slab slot of this frame's register window
	nSlots  int32
	memBase int64 // memTop at entry, restored on return
}

// initialSlabSlots sizes the register slab of a fresh exec; it grows
// geometrically on demand.
const initialSlabSlots = 256

// exec is the per-run machine state.
type exec struct {
	p      *Program
	mem    []uint64
	memTop int64
	maxMem int64
	maxDep int
	dyn    int64
	maxDyn int64

	// limit is runFast's trip point: min(maxDyn, the next stop). A counted
	// instruction whose dyn index exceeds it enters trip, which exhausts the
	// budget, injects the armed fault or records the due snapshot.
	limit int64

	// memHW bounds the words ever written: mem[memHW:] is all zero. Allocas
	// clear only the claimed words below it and growMem copies only those,
	// so a fault that corrupts an allocation size into millions of words
	// costs neither a clear nor a copy of the untouched region.
	memHW int64

	// Explicit call stack. Register windows live in regSlab (taintSlab when
	// tracking) below slabTop; returning a frame just lowers slabTop, so
	// call storage is reused instead of allocated per call.
	frames    []frame
	regSlab   []uint64
	taintSlab []bool
	slabTop   int

	plan *fault.Plan
	// occSeen counts the completed executions of a static plan's target:
	// per instruction in the taint loop, as of dyn clock occDyn in runFast.
	occSeen  int64
	occDyn   int64
	injected bool
	injID    int32
	injBit   uint8
	rng      *xrand.RNG

	output   []OutVal
	trap     *Trap
	budget   bool
	detected bool
	moveBuf  []uint64

	// Block/edge execution counters (see fastprofile.go): the
	// CounterLen()-sized counter space runFast bumps at block entries and
	// phi edges; overlay lists static instruction ids executed by
	// partially-completed blocks, fused slots or move lists at abort, each
	// worth +1 over the block-derived count.
	blockCounts []int64
	overlay     []int32

	// Golden-prefix checkpointing (nil unless the run was started with
	// Options.CheckpointInterval): the next snapshot is due once the dyn
	// clock passes nextCkpt.
	ckpt     *Checkpoints
	nextCkpt int64

	// Convergence stop of an Injector trial (nil probe: unarmed): once the
	// fault has fired, trip compares the state with probe.snaps[probeIdx]
	// at its dyn clock, and converged records that the trial ended there.
	probe     *Checkpoints
	probeIdx  int
	converged bool

	// Taint tracking state (nil unless Options.TrackPropagation).
	taintMem     []bool
	taintStatic  []bool
	taintStats   *PropagationStats
	retTaint     bool
	taintMoveBuf []bool
}

func newExec(p *Program, opts Options) *exec {
	e := &exec{
		p:           p,
		mem:         make([]uint64, 4096),
		memTop:      1, // word 0 is the null page
		maxMem:      int64(opts.MaxMemWords),
		maxDep:      opts.MaxDepth,
		maxDyn:      opts.MaxDyn,
		plan:        opts.Plan,
		rng:         opts.FaultRNG,
		frames:      make([]frame, 0, 8),
		regSlab:     make([]uint64, initialSlabSlots),
		blockCounts: make([]int64, p.CounterLen()),
	}
	if e.maxMem <= 0 {
		e.maxMem = defaultMaxMemWords
	}
	if e.maxDep <= 0 {
		e.maxDep = defaultMaxDepth
	}
	if e.maxDyn <= 0 {
		e.maxDyn = defaultMaxDyn
	}
	if opts.TrackPropagation {
		e.taintStats = &PropagationStats{}
		e.taintStatic = make([]bool, p.numInstrs)
		e.taintMem = make([]bool, len(e.mem))
		e.taintSlab = make([]bool, len(e.regSlab))
	}
	return e
}

// outcome assembles the run's Result by value; Output and the other
// reference fields borrow the exec's buffers.
func (e *exec) outcome(ret uint64) Result {
	return Result{
		Ret:            ret,
		Output:         e.output,
		DynCount:       e.dyn,
		Trap:           e.trap,
		BudgetExceeded: e.budget,
		Injected:       e.injected,
		InjectedID:     int(e.injID),
		InjectedBit:    e.injBit,
		DetectedFlag:   e.detected,
		Propagation:    e.taintStats,
		Checkpoints:    e.ckpt,
	}
}

// Run executes the program entry function with the given argument slot
// values. It never panics on program-level failures; traps, hangs and
// injected faults are reported in the Result.
func Run(p *Program, args []uint64, opts Options) *Result {
	return runFrom(p, nil, args, opts)
}

// runFrom executes p under opts from snapshot s, or from the entry function
// with args when s is nil. Every run goes through runFast except taint
// tracking, the one job of the per-instruction loop (taint.go).
func runFrom(p *Program, s *Snapshot, args []uint64, opts Options) *Result {
	if opts.CheckpointInterval > 0 && opts.Plan != nil {
		panic("interp: CheckpointInterval with a fault plan — snapshots must capture fault-free state")
	}
	if opts.TrackPropagation && (opts.Profile || opts.CheckpointInterval > 0) {
		panic("interp: a TrackPropagation run neither profiles nor records checkpoints")
	}
	e := newExec(p, opts)
	if opts.CheckpointInterval > 0 {
		e.ckpt = &Checkpoints{prog: p, interval: opts.CheckpointInterval}
		e.nextCkpt = opts.CheckpointInterval
	}
	e.start(s, args)
	if opts.TrackPropagation {
		ret, _ := e.run()
		r := e.outcome(ret)
		return &r
	}
	ret, ok := e.runFast()
	if ok && e.ckpt != nil {
		e.ckpt.end = &runEnd{dyn: e.dyn, ret: ret, output: slices.Clone(e.output), detected: e.detected,
			maxMem: e.maxMem, maxDep: e.maxDep}
	}
	r := e.outcome(ret)
	if opts.Profile {
		if !ok {
			e.fixupAbort()
		}
		r.InstrCounts = p.foldCounts(nil, e.blockCounts, e.overlay)
	}
	return &r
}

// start rewinds a fresh or reset exec to snapshot s, or pushes the entry
// frame with args when s is nil, and arms e.limit for the run's first
// stop: the first snapshot when recording, the earliest point the plan's
// fault can fire when injecting.
func (e *exec) start(s *Snapshot, args []uint64) {
	if s != nil {
		s.restoreInto(e)
	} else {
		entry := e.p.funcs[e.p.entry]
		if len(args) != entry.nParams {
			panic(fmt.Sprintf("interp: entry %s takes %d args, got %d", entry.name, entry.nParams, len(args)))
		}
		e.pushFrame(e.p.entry)
		copy(e.regSlab[:len(args)], args)
		e.blockCounts[entry.blockBase]++
	}
	stop := int64(math.MaxInt64)
	switch {
	case e.ckpt != nil:
		stop = e.nextCkpt
	case e.plan != nil:
		if e.plan.Mode == fault.ModeStatic {
			e.occSeen, e.occDyn = occurrences(e.p, e.blockCounts, e.frames, e.plan.StaticID), e.dyn
		}
		stop = e.planStop(e.dyn, e.occSeen)
	}
	e.limit = min(e.maxDyn, stop)
}

// planStop returns the dyn clock value after which the armed plan's fault
// can next fire, given that dyn instructions have completed, occ of them
// executions of a static plan's target. A static target executes at most
// once per dyn, so its Occurrence-th execution is at least
// Occurrence-occ instructions away.
func (e *exec) planStop(dyn, occ int64) int64 {
	switch pl := e.plan; pl.Mode {
	case fault.ModeStatic:
		if occ < pl.Occurrence {
			return dyn + pl.Occurrence - occ - 1
		}
	case fault.ModeDynamic:
		if pl.TargetDyn > dyn {
			return pl.TargetDyn - 1
		}
	}
	return math.MaxInt64 // the target is out of reach
}

// pushFrame claims a zeroed register window for funcs[fi] and pushes its
// frame. Callers copy arguments into the window afterwards; note the slabs
// may have been reallocated, so caller-held windows must be re-derived.
func (e *exec) pushFrame(fi int32) {
	cf := e.p.funcs[fi]
	if need := e.slabTop + cf.nSlots; need > len(e.regSlab) {
		e.growSlab(need)
	}
	base := e.slabTop
	clear(e.regSlab[base : base+cf.nSlots])
	if e.taintSlab != nil {
		clear(e.taintSlab[base : base+cf.nSlots])
	}
	e.slabTop = base + cf.nSlots
	e.frames = append(e.frames, frame{
		fi: fi, regOff: int32(base), nSlots: int32(cf.nSlots), memBase: e.memTop,
	})
}

// growSlab grows the register (and taint) slabs to at least need slots,
// preserving live contents.
func (e *exec) growSlab(need int) {
	sz := len(e.regSlab) * 2
	if sz < need {
		sz = need
	}
	rs := make([]uint64, sz)
	copy(rs, e.regSlab[:e.slabTop])
	e.regSlab = rs
	if e.taintSlab != nil {
		ts := make([]bool, sz)
		copy(ts, e.taintSlab[:e.slabTop])
		e.taintSlab = ts
	}
}

// growMem grows e.mem to at least n words in one allocation, keeping the
// taint shadow sized with it.
func (e *exec) growMem(n int64) {
	sz := max(int64(len(e.mem))*2, n)
	m := make([]uint64, sz)
	copy(m, e.mem[:e.memHW])
	e.mem = m
	if e.taintMem != nil {
		t := make([]bool, sz)
		copy(t, e.taintMem)
		e.taintMem = t
	}
}

// store writes one bounds-checked word, raising the written high-water
// mark.
func (e *exec) store(addr, v uint64) {
	e.mem[addr] = v
	if int64(addr) >= e.memHW {
		e.memHW = int64(addr) + 1
	}
}

// clearClaimed zeroes the words an alloca just claimed, [base, memTop),
// skipping those at or above memHW, which were never written.
func (e *exec) clearClaimed(base int64) {
	if base < e.memHW {
		clear(e.mem[base:min(e.memTop, e.memHW)])
	}
}

// applyFault corrupts v, the value static instruction id of type ty is
// producing at the plan's target, and records the injection. Both loops
// inject through it.
func (e *exec) applyFault(id int32, ty ir.Type, v uint64) uint64 {
	var bit uint8
	if m := e.plan.Model; m != nil {
		// Pluggable model path: the model owns the corruption. Bit stays
		// zero for reporting; determinism still holds because Apply draws
		// only from the per-trial stream.
		if e.rng == nil {
			panic("interp: fault plan with a model but no FaultRNG")
		}
		v = m.Apply(ty, v, e.rng)
	} else {
		bit = e.plan.Bit
		if e.plan.BitPending() {
			if e.rng == nil {
				panic("interp: fault plan with pending bit but no FaultRNG")
			}
			bit = fault.RandomBit(e.rng, ty)
		}
		v = fault.Flip(ty, v, bit)
		if e.plan.SecondBitPending() {
			if second, ok := fault.RandomSecondBit(e.rng, ty, bit); ok {
				v = fault.Flip(ty, v, second)
			}
		} else if sb := e.plan.SecondBit; sb > 0 {
			// A concrete second bit equal to the first would re-flip and
			// cancel the fault; skip it like the pending path.
			if second := uint8(sb - 1); second != bit {
				v = fault.Flip(ty, v, second)
			}
		}
	}
	e.injected = true
	e.injID = id
	e.injBit = bit
	return v
}

func get(regs, consts []uint64, r ref) uint64 {
	if r >= 0 {
		return regs[r]
	}
	return consts[-r-1]
}

// checkAddr validates a memory word address for load/store.
func (e *exec) checkAddr(fn string, addr uint64) bool {
	if addr == 0 {
		e.trap = &Trap{Kind: TrapNull, Fn: fn}
		return false
	}
	if addr >= uint64(e.memTop) {
		e.trap = &Trap{Kind: TrapOOB, Fn: fn}
		return false
	}
	return true
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// QuantizeOutput rounds a float to six significant decimal digits — the
// precision programs typically print with printf("%g"). LLFI classifies
// SDCs by diffing printed output, so low-order mantissa corruption that
// does not survive the formatting is benign; this quantization reproduces
// that masking, which the bit-exact comparison of raw doubles would miss.
func QuantizeOutput(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
		return v
	}
	var buf [32]byte
	q, err := strconv.ParseFloat(string(strconv.AppendFloat(buf[:0], v, 'g', 6, 64)), 64)
	if err != nil {
		return v
	}
	return q
}

// fpToSI converts with x86 cvttsd2si semantics: NaN and out-of-range values
// produce the minimum integer of the target width (deterministic, no trap).
func fpToSI(ty ir.Type, f float64) uint64 {
	if ty == ir.I32 {
		if math.IsNaN(f) || f >= math.MaxInt32+1 || f < math.MinInt32 {
			return ir.CanonInt(ir.I32, uint64(uint32(1)<<31))
		}
		return ir.CanonInt(ir.I32, uint64(uint32(int32(f))))
	}
	if math.IsNaN(f) || f >= math.MaxInt64 || f < math.MinInt64 {
		return uint64(1) << 63
	}
	return uint64(int64(f))
}

// intrinsic evaluates a built-in call and returns its value.
func (e *exec) intrinsic(in *inst, regs, consts []uint64) uint64 {
	intr := -in.callee - 1
	a := func(i int) uint64 { return get(regs, consts, in.args[i]) }
	f := func(i int) float64 { return math.Float64frombits(a(i)) }
	switch intr {
	case intrSqrt:
		return math.Float64bits(math.Sqrt(f(0)))
	case intrFabs:
		return math.Float64bits(math.Abs(f(0)))
	case intrExp:
		return math.Float64bits(math.Exp(f(0)))
	case intrLog:
		return math.Float64bits(math.Log(f(0)))
	case intrSin:
		return math.Float64bits(math.Sin(f(0)))
	case intrCos:
		return math.Float64bits(math.Cos(f(0)))
	case intrPow:
		return math.Float64bits(math.Pow(f(0), f(1)))
	case intrFloor:
		return math.Float64bits(math.Floor(f(0)))
	case intrPrintI64:
		e.output = append(e.output, OutVal{Ty: ir.I64, Bits: a(0)})
		return 0
	case intrPrintF64:
		q := QuantizeOutput(math.Float64frombits(a(0)))
		e.output = append(e.output, OutVal{Ty: ir.F64, Bits: math.Float64bits(q)})
		return 0
	case intrSDCDetect:
		e.detected = true
		return 0
	default:
		panic(fmt.Sprintf("interp: unknown intrinsic %d", intr))
	}
}
