package interp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/ir"
)

// This file implements runFast, the engine's production dispatch loop,
// and the profiling front end built on it. Golden runs, GA fitness
// profiles, snapshot recording and every fault-injection trial execute
// here; only taint tracking takes the per-instruction loop (taint.go). The
// loop counts executions per basic block (one counter bump per block
// entry, Ball–Larus style) instead of per static instruction, over the
// fused superinstruction code array. Observable behaviour — outputs, return
// value, dynamic instruction count, traps, budget exhaustion and the
// reconstructed per-instruction count vector — is bit-identical to the
// reference interpreter (interptest).
//
// Counter model. The program has one int64 counter per basic block followed
// by one per phi-carrying CFG edge (Program.CounterLen() total). A block's
// counter is bumped every time control enters it: once at function entry
// and once per taken jump. An edge's counter is bumped after all of the
// edge's phi moves complete. A non-phi instruction's count is then exactly
// its block's counter; a phi's count is the sum of its incoming edges'
// counters (phis execute on edges — a function entered by call runs no edge
// moves, so entry-block phis correctly count zero from the entry bump).
//
// Aborts (trap or budget) leave blocks partially executed, so the plain
// block-derived counts overshoot on the aborting path. fixupAbort repairs
// this: for every live frame it retracts the current block's entry bump and
// records the block's actually-executed prefix in e.overlay (+1 per listed
// id); handlers append additional overlay entries for work completed inside
// the aborting slot (finished phi moves, the first half of a fused pair).
//
// Stops. Every counted instruction compares its dyn index with e.limit,
// min(maxDyn, next stop), the comparison a budget check needs anyway; a
// profiling run has no stop, so its limit is the budget. Passing the limit
// enters the cold trip, which exhausts the budget, fires the armed fault,
// records the due snapshot or, after an Injector trial's fault, compares
// the state with the next golden snapshot (the convergence stop,
// checkpoint.go), then re-arms the limit.

// Profiler runs profiled executions of one Program with zero steady-state
// allocation: the machine state (memory, register slabs, counters, output
// buffer) is owned by the Profiler and reused across Run calls. A Profiler
// is not safe for concurrent use; pool one per worker.
type Profiler struct {
	p       *Program
	e       *exec
	run     ProfileRun
	scratch []int64
}

// NewProfiler returns a Profiler for p.
func NewProfiler(p *Program) *Profiler {
	return &Profiler{p: p, e: newExec(p, Options{})}
}

// Program returns the compiled program this profiler executes.
func (pr *Profiler) Program() *Program { return pr.p }

// Run executes the entry function with the given argument slots and a
// dynamic-instruction budget (0 means the interpreter default). The
// returned ProfileRun — including its Output and count state — is owned by
// the Profiler and valid only until the next Run call; copy what must
// outlive it.
func (pr *Profiler) Run(args []uint64, maxDyn int64) *ProfileRun {
	r := &pr.run
	*r = ProfileRun{prog: pr.p, prof: pr}
	e := pr.e
	e.reset(maxDyn)
	e.start(nil, args)
	ret, ok := e.runFast()
	if !ok {
		e.fixupAbort()
	}
	r.Ret = ret
	r.Output = e.output
	r.DynCount = e.dyn
	r.Trap = e.trap
	r.BudgetExceeded = e.budget
	r.DetectedFlag = e.detected
	r.counters = e.blockCounts
	r.overlay = e.overlay
	return r
}

// ProfileRun is the outcome of one profiled execution. The exported fields
// mirror interp.Result; the count state stays in block/edge form until a
// caller asks for per-instruction data.
type ProfileRun struct {
	Ret            uint64
	Output         []OutVal // borrowed from the Profiler; valid until its next Run
	DynCount       int64
	Trap           *Trap
	BudgetExceeded bool
	DetectedFlag   bool

	prog     *Program
	prof     *Profiler
	counters []int64 // borrowed block/edge counter space
	overlay  []int32 // borrowed abort-overlay id list
}

// Program returns the compiled program the run executed.
func (r *ProfileRun) Program() *Program { return r.prog }

// Failed reports whether the run is unusable for fitness or coverage:
// it trapped, exhausted its dynamic budget, executed no injectable
// instructions, or raised sdc_detect — the inputs §3.1.2 excludes, which
// campaign.NewGolden rejects too.
func (r *ProfileRun) Failed() bool {
	return r.Trap != nil || r.BudgetExceeded || r.DynCount == 0 || r.DetectedFlag
}

// Fitness evaluates Σ_c S_c·C_c / N_total over the block/edge counter
// space, where counterScores is a Program.CounterScores fold of the
// per-instruction score vector. No per-instruction loop, no InstrCounts
// materialization. Failed runs score zero (a candidate that crashes, hangs
// or does nothing exposes no SDC surface). The counter-order summation is
// the canonical float association of fitness values.
func (r *ProfileRun) Fitness(counterScores []float64) float64 {
	if r.Failed() {
		return 0
	}
	var acc float64
	for c, n := range r.counters {
		if n > 0 {
			acc += counterScores[c] * float64(n)
		}
	}
	return acc / float64(r.DynCount)
}

// InstrCounts materializes the per-static-instruction execution count
// vector into dst (grown/reset as needed), reconstructing it from block and
// edge counters plus the abort overlay.
func (r *ProfileRun) InstrCounts(dst []int64) []int64 {
	return r.prog.foldCounts(dst, r.counters, r.overlay)
}

// foldCounts folds block/edge counters and an abort overlay into the
// per-static-instruction count vector, written into dst (grown/reset as
// needed).
func (p *Program) foldCounts(dst, counters []int64, overlay []int32) []int64 {
	n := p.numInstrs
	if cap(dst) < n {
		dst = make([]int64, n)
	} else {
		dst = dst[:n]
	}
	for id := 0; id < n; id++ {
		if b := p.instrBlock[id]; b >= 0 {
			dst[id] = counters[b]
		} else {
			var s int64
			for _, ec := range p.phiEdges[id] {
				s += counters[ec]
			}
			dst[id] = s
		}
	}
	for _, id := range overlay {
		dst[id]++
	}
	return dst
}

// occurrences returns how many times static instruction id has completed
// in a machine state at a slot boundary, read from its block/edge counters
// and live frames: a frame's current block was counted on entry, so —
// the walk fixupAbort does — id counts there only if it sits before the
// frame's pc. An id out of range never executes and reads as MaxInt64, so
// no plan on it can fire.
func occurrences(p *Program, counters []int64, frames []frame, id int) int64 {
	if id < 0 || id >= p.numInstrs {
		return math.MaxInt64
	}
	b := p.instrBlock[id]
	if b < 0 {
		var n int64
		for _, ec := range p.phiEdges[id] {
			n += counters[ec]
		}
		return n
	}
	n := counters[b]
	for i := range frames {
		fr := &frames[i]
		cf := p.funcs[fr.fi]
		lb := cf.blockOf[fr.pc]
		if cf.blockBase+lb != b {
			continue
		}
		n--
		for pc := cf.blockStart[lb]; pc < fr.pc; pc++ {
			if in := &cf.code[pc]; int(in.id) == id || int(in.id2) == id {
				n++
				break
			}
		}
	}
	return n
}

// Counters copies the run's block/edge hit counters into dst (grown as
// needed) and returns it. Unlike the borrowed internal state, the copy stays
// valid across the profiler's subsequent runs. Counter indices are stable
// per program (Program.CounterLen()), so cross-run comparisons — e.g. the
// edge-rarity map of the rare-branch fuzzer — are well-defined. The abort
// overlay (partial counts of the block in flight when a run aborts) is not
// folded in, which is fine for coverage-style uses because aborted runs are
// discarded as Failed.
func (r *ProfileRun) Counters(dst []int64) []int64 {
	if cap(dst) < len(r.counters) {
		dst = make([]int64, len(r.counters))
	} else {
		dst = dst[:len(r.counters)]
	}
	copy(dst, r.counters)
	return dst
}

// CoveredInstrs counts static instructions executed at least once.
func (r *ProfileRun) CoveredInstrs() int {
	r.prof.scratch = r.InstrCounts(r.prof.scratch)
	n := 0
	for _, c := range r.prof.scratch {
		if c > 0 {
			n++
		}
	}
	return n
}

// Coverage returns the fraction of injectable static instructions executed
// at least once — the small-input fuzzer's selection criterion.
func (r *ProfileRun) Coverage() float64 {
	if r.prog.numInstrs == 0 {
		return 0
	}
	return float64(r.CoveredInstrs()) / float64(r.prog.numInstrs)
}

// reset rewinds a reused machine (Profiler, Injector) for its next run.
// Memory contents are deliberately NOT cleared: word 0 is never written
// (checkAddr rejects address 0), loads can only reach addresses below
// memTop, and every address below memTop was claimed by an OpAlloca that
// zeroed it — so a fresh run cannot observe a previous run's memory.
func (e *exec) reset(maxDyn int64) {
	e.memTop = 1
	e.dyn = 0
	e.maxDyn = maxDyn
	if e.maxDyn <= 0 {
		e.maxDyn = defaultMaxDyn
	}
	e.frames = e.frames[:0]
	e.slabTop = 0
	e.output = e.output[:0]
	e.trap = nil
	e.budget = false
	e.detected = false
	e.injected, e.injID, e.injBit, e.occSeen = false, 0, 0, 0
	e.converged = false
	clear(e.blockCounts)
	e.overlay = e.overlay[:0]
}

// applyMovesFast performs the phi parallel copies of a CFG edge leaving the
// top frame's slot at fr.pc, which the caller syncs, advancing the caller's
// local dyn clock. On an abort the completed moves' phi ids are recorded in
// the overlay, since the edge counter that would have covered them is never
// bumped.
func (e *exec) applyMovesFast(moves []move, regs, consts []uint64, dyn int64) (int64, bool) {
	if cap(e.moveBuf) < len(moves) {
		e.moveBuf = make([]uint64, len(moves))
	}
	buf := e.moveBuf[:len(moves)]
	for i, mv := range moves {
		buf[i] = get(regs, consts, mv.src)
	}
	for i, mv := range moves {
		dyn++
		if dyn > e.limit {
			var ok bool
			if buf[i], ok = e.tripMove(dyn, mv, buf[i], moves[:i]); !ok {
				for _, m := range moves[:i] {
					e.overlay = append(e.overlay, m.phiID)
				}
				return dyn, false
			}
		}
		regs[mv.dst] = buf[i]
	}
	return dyn, true
}

// tripMove is trip for phi move mv of the edge leaving the top frame's
// slot, after the edge's moves done; an opFusedCmpBr slot's comparison
// has completed too. It keeps the slot pc and the comparison off the
// argument list of applyMovesFast, which every phi edge calls.
func (e *exec) tripMove(dyn int64, mv move, v uint64, done []move) (uint64, bool) {
	fr := &e.frames[len(e.frames)-1]
	slot := &e.p.funcs[fr.fi].code[fr.pc]
	cmp := int32(-1)
	if slot.op == opFusedCmpBr {
		cmp = slot.id
	}
	return e.trip(fr.pc, dyn, mv.phiID, mv.ty, v, cmp, done)
}

// tripRet is trip for a call's result, counted after its callee's frame
// was popped. A snapshot there must see the callee still at its ret, the
// state the slot started in, so for the trip's duration the frame (intact
// above the stack top, its pc synced by OpRet) and its register window
// come back. memTop stays at the callee's base: the ret lowers it there
// first on resume, so the callee's stack memory is unobservable.
func (e *exec) tripRet(dyn int64, cin *inst, rv uint64) (uint64, bool) {
	n := len(e.frames)
	e.frames = e.frames[:n+1]
	callee := &e.frames[n]
	slabTop := e.slabTop
	e.slabTop = int(callee.regOff + callee.nSlots)
	v, ok := e.trip(callee.pc, dyn, cin.id, cin.ty, rv, -1, nil)
	e.frames, e.slabTop = e.frames[:n], slabTop
	return v, ok
}

// trip is runFast's cold path, entered when a counted instruction's dyn
// index passes e.limit: static instruction id of type ty is about to
// produce v as dynamic instruction dyn, at slot pc of the top frame, after
// the slot's already-completed sub-instructions — done (a fused pair's
// first half or comparison, else -1) and doneMoves (the phi moves applied
// so far on this edge). trip syncs the top frame's pc, then exhausts the
// budget (false: abort, with e.dyn synced), fires the armed fault, records
// the due snapshot or probes for convergence (false: the trial converged,
// see converge), re-arms e.limit and returns the value to commit.
func (e *exec) trip(pc int32, dyn int64, id int32, ty ir.Type, v uint64, done int32, doneMoves []move) (uint64, bool) {
	e.frames[len(e.frames)-1].pc = pc
	if dyn > e.maxDyn {
		e.budget = true
		e.dyn = dyn
		return v, false
	}
	stop := int64(math.MaxInt64)
	switch pl := e.plan; {
	case e.ckpt != nil:
		// A snapshot is resumable only where nothing of the slot has run
		// yet; mid-slot (a fused pair's second half, mid phi-edge) it is
		// deferred to the next counted instruction.
		stop = dyn
		if done < 0 && len(doneMoves) == 0 {
			e.dyn = dyn - 1
			e.takeSnapshot()
			stop = e.nextCkpt
		}
	case pl != nil && !e.injected:
		var occ int64
		if pl.Mode == fault.ModeStatic {
			if dyn == e.occDyn+1 {
				// Nothing has run since the count at the previous stop, which
				// included that stop's own instruction. A rare target with
				// one occurrence left stops at every instruction, so this
				// skips the walk on all but the first of them.
				occ = e.occSeen
			} else {
				occ = occurrences(e.p, e.blockCounts, e.frames, pl.StaticID)
				for _, mv := range doneMoves {
					if int(mv.phiID) == pl.StaticID {
						occ++
					}
				}
				if int(done) == pl.StaticID {
					occ++
				}
			}
			if int(id) == pl.StaticID {
				occ++
			}
			e.occSeen, e.occDyn = occ, dyn
		}
		if pl.Mode == fault.ModeStatic && int(id) == pl.StaticID && occ == pl.Occurrence ||
			pl.Mode == fault.ModeDynamic && dyn == pl.TargetDyn {
			v = e.applyFault(id, ty, v)
			if c := e.probe; c != nil {
				// The first snapshot whose state includes this instruction.
				e.probeIdx = sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].dyn >= dyn })
				stop = e.probeStop()
			}
		} else {
			stop = e.planStop(dyn, occ)
		}
	case e.probe != nil:
		// The convergence stop, at dyn == snapshot dyn + 1. A match
		// mid-slot would not be a resumable state, so there the stop
		// passes to the next snapshot, as it does on a mismatch.
		if done < 0 && len(doneMoves) == 0 && e.probe.snaps[e.probeIdx].matches(e) {
			e.converge(dyn)
			return v, false
		}
		e.probeIdx++
		stop = e.probeStop()
	}
	e.limit = min(e.maxDyn, stop)
	return v, true
}

// probeStop returns the stop of the convergence probe's next snapshot, the
// dyn clock after which the trial can next compare its state with it.
func (e *exec) probeStop() int64 {
	if e.probeIdx < len(e.probe.snaps) {
		return e.probe.snaps[e.probeIdx].dyn
	}
	return math.MaxInt64
}

// converge ends a trial whose state matched a golden snapshot just before
// dynamic instruction dyn: it finishes as the golden run did, so it takes
// the golden's end state (the Injector supplies the return value).
func (e *exec) converge(dyn int64) {
	c, end := e.probe, e.probe.end
	c.converged.Add(1)
	c.convergedDyn.Add(end.dyn - (dyn - 1))
	e.dyn = end.dyn
	e.output = append(e.output[:0], end.output...)
	e.detected = end.detected
	e.converged = true
}

// fixupAbort repairs the block counters after an aborted fast-path run: for
// every live frame, the current block's entry bump is retracted and the
// ids of the block's executed prefix (everything strictly before the
// frame's pc — for suspended frames that excludes the pending call, which
// only counts at return) are appended to the overlay. Combined with the
// handler-appended overlays for partial slots, the reconstructed counts
// match a per-instruction profiled run's exactly.
func (e *exec) fixupAbort() {
	for i := range e.frames {
		fr := &e.frames[i]
		cf := e.p.funcs[fr.fi]
		lb := cf.blockOf[fr.pc]
		e.blockCounts[cf.blockBase+lb]--
		for p := cf.blockStart[lb]; p < fr.pc; p++ {
			in := &cf.code[p]
			if in.id >= 0 {
				e.overlay = append(e.overlay, in.id)
			}
			if in.id2 >= 0 {
				e.overlay = append(e.overlay, in.id2)
			}
		}
	}
}

// evalCmp evaluates a comparison opcode on raw operand bits.
func evalCmp(op ir.Op, srcTy ir.Type, x, y uint64) uint64 {
	switch op {
	case ir.OpICmpEQ:
		return b2u(x == y)
	case ir.OpICmpNE:
		return b2u(x != y)
	case ir.OpICmpSLT:
		return b2u(ir.SignedValue(srcTy, x) < ir.SignedValue(srcTy, y))
	case ir.OpICmpSLE:
		return b2u(ir.SignedValue(srcTy, x) <= ir.SignedValue(srcTy, y))
	case ir.OpICmpSGT:
		return b2u(ir.SignedValue(srcTy, x) > ir.SignedValue(srcTy, y))
	case ir.OpICmpSGE:
		return b2u(ir.SignedValue(srcTy, x) >= ir.SignedValue(srcTy, y))
	}
	fx, fy := math.Float64frombits(x), math.Float64frombits(y)
	switch op {
	case ir.OpFCmpOEQ:
		return b2u(fx == fy)
	case ir.OpFCmpONE:
		return b2u(fx < fy || fx > fy)
	case ir.OpFCmpOLT:
		return b2u(fx < fy)
	case ir.OpFCmpOLE:
		return b2u(fx <= fy)
	case ir.OpFCmpOGT:
		return b2u(fx > fy)
	case ir.OpFCmpOGE:
		return b2u(fx >= fy)
	default:
		panic(fmt.Sprintf("interp: evalCmp on %v", op))
	}
}

// evalFusedArith evaluates a fusableArith opcode on raw operand bits. Both
// dispatch loops use it, for fused pairs and single instructions alike.
func evalFusedArith(op ir.Op, ty ir.Type, x, y uint64) uint64 {
	switch op {
	case ir.OpAdd:
		return ir.CanonInt(ty, x+y)
	case ir.OpSub:
		return ir.CanonInt(ty, x-y)
	case ir.OpMul:
		return ir.CanonInt(ty, x*y)
	case ir.OpShl:
		return ir.CanonInt(ty, x<<(y&uint64(ty.Bits()-1)))
	case ir.OpLShr:
		return x >> (y & uint64(ty.Bits()-1)) // operands canonical: high bits clear
	case ir.OpAShr:
		return ir.CanonInt(ty, uint64(ir.SignedValue(ty, x)>>(y&uint64(ty.Bits()-1))))
	case ir.OpAnd:
		return x & y
	case ir.OpOr:
		return x | y
	case ir.OpXor:
		return x ^ y
	case ir.OpFAdd:
		return math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
	case ir.OpFSub:
		return math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y))
	case ir.OpFMul:
		return math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y))
	case ir.OpFDiv:
		return math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y))
	case ir.OpGEP:
		return x + y
	default:
		panic(fmt.Sprintf("interp: evalFusedArith on %v", op))
	}
}

// runFast is the production dispatch loop: block/edge counters in place of
// per-instruction counting, stops folded into the budget comparison (see
// trip), and the frame re-entry and abort paths hand-inlined — a reenter
// closure would force its captured locals (pc, regs, code) into heap cells,
// which is exactly the overhead a fitness-evaluation inner loop cannot
// afford. The dyn clock lives in a local, synced to e.dyn at every exit.
// The limit is read from e at each check rather than cached: a local
// that trip re-arms becomes a loop-carried value that the compiler spills
// and reloads around every check, where the field costs one load.
func (e *exec) runFast() (uint64, bool) {
	var (
		fr     *frame
		cf     *compiledFunc
		regs   []uint64
		consts []uint64
		code   []inst
		pc     int32
		ok     bool
	)
	counters := e.blockCounts
	dyn := e.dyn

	fr = &e.frames[len(e.frames)-1]
	cf = e.p.funcs[fr.fi]
	regs = e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
	consts = cf.consts
	code = cf.code
	pc = fr.pc

	for {
		in := &code[pc]
		switch in.op {
		case ir.OpBr:
			if len(in.movesA) != 0 {
				fr.pc = pc
				if dyn, ok = e.applyMovesFast(in.movesA, regs, consts, dyn); !ok {
					return 0, false
				}
				counters[in.edgeA]++
			}
			counters[in.blkA]++
			pc = in.jumpA
			continue

		case ir.OpCondBr:
			moves, edge, blk, jump := in.movesB, in.edgeB, in.blkB, in.jumpB
			if get(regs, consts, in.a)&1 != 0 {
				moves, edge, blk, jump = in.movesA, in.edgeA, in.blkA, in.jumpA
			}
			if len(moves) != 0 {
				fr.pc = pc
				if dyn, ok = e.applyMovesFast(moves, regs, consts, dyn); !ok {
					return 0, false
				}
				counters[edge]++
			}
			counters[blk]++
			pc = jump
			continue

		case opFusedCmpBr:
			v := evalCmp(in.op1, in.srcTy, get(regs, consts, in.a), get(regs, consts, in.b))
			dyn++
			if dyn > e.limit {
				if v, ok = e.trip(pc, dyn, in.id, in.ty, v, -1, nil); !ok {
					return 0, false
				}
			}
			regs[in.dst] = v
			moves, edge, blk, jump := in.movesB, in.edgeB, in.blkB, in.jumpB
			if v&1 != 0 {
				moves, edge, blk, jump = in.movesA, in.edgeA, in.blkA, in.jumpA
			}
			if len(moves) != 0 {
				fr.pc = pc
				if dyn, ok = e.applyMovesFast(moves, regs, consts, dyn); !ok {
					// The comparison executed and counted; the fixup prefix
					// walk stops before this slot, so overlay it explicitly.
					e.overlay = append(e.overlay, in.id)
					return 0, false
				}
				counters[edge]++
			}
			counters[blk]++
			pc = jump
			continue

		case opFusedLoadArith:
			addr := get(regs, consts, in.a)
			if !e.checkAddr(cf.name, addr) {
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			v1 := ir.CanonInt(in.ty, e.mem[addr])
			dyn++
			if dyn > e.limit {
				if v1, ok = e.trip(pc, dyn, in.id, in.ty, v1, -1, nil); !ok {
					return 0, false
				}
			}
			regs[in.dst] = v1
			v2 := evalFusedArith(in.op2, in.ty2, get(regs, consts, in.a2), get(regs, consts, in.b2))
			dyn++
			if dyn > e.limit {
				if v2, ok = e.trip(pc, dyn, in.id2, in.ty2, v2, in.id, nil); !ok {
					e.overlay = append(e.overlay, in.id)
					return 0, false
				}
			}
			regs[in.dst2] = v2
			pc++
			continue

		case opFusedArithLoad:
			v1 := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			dyn++
			if dyn > e.limit {
				if v1, ok = e.trip(pc, dyn, in.id, in.ty, v1, -1, nil); !ok {
					return 0, false
				}
			}
			regs[in.dst] = v1
			addr := get(regs, consts, in.a2)
			if !e.checkAddr(cf.name, addr) {
				e.overlay = append(e.overlay, in.id)
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			v2 := ir.CanonInt(in.ty2, e.mem[addr])
			dyn++
			if dyn > e.limit {
				if v2, ok = e.trip(pc, dyn, in.id2, in.ty2, v2, in.id, nil); !ok {
					e.overlay = append(e.overlay, in.id)
					return 0, false
				}
			}
			regs[in.dst2] = v2
			pc++
			continue

		case opFusedArithStore:
			v1 := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			dyn++
			if dyn > e.limit {
				if v1, ok = e.trip(pc, dyn, in.id, in.ty, v1, -1, nil); !ok {
					return 0, false
				}
			}
			regs[in.dst] = v1
			addr := get(regs, consts, in.b2)
			if !e.checkAddr(cf.name, addr) {
				e.overlay = append(e.overlay, in.id)
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			e.store(addr, get(regs, consts, in.a2))
			pc++
			continue

		case opFusedArithArith:
			v1 := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			dyn++
			if dyn > e.limit {
				if v1, ok = e.trip(pc, dyn, in.id, in.ty, v1, -1, nil); !ok {
					return 0, false
				}
			}
			regs[in.dst] = v1
			v2 := evalFusedArith(in.op2, in.ty2, get(regs, consts, in.a2), get(regs, consts, in.b2))
			dyn++
			if dyn > e.limit {
				if v2, ok = e.trip(pc, dyn, in.id2, in.ty2, v2, in.id, nil); !ok {
					e.overlay = append(e.overlay, in.id)
					return 0, false
				}
			}
			regs[in.dst2] = v2
			pc++
			continue

		case ir.OpRet:
			var rv uint64
			if cf.retTy != ir.Void {
				rv = get(regs, consts, in.a)
			}
			fr.pc = pc // a snapshot at the call's result resumes at this ret (tripRet)
			e.memTop = fr.memBase
			e.slabTop = int(fr.regOff)
			e.frames = e.frames[:len(e.frames)-1]
			if len(e.frames) == 0 {
				e.dyn = dyn
				return rv, true
			}
			fr = &e.frames[len(e.frames)-1]
			cf = e.p.funcs[fr.fi]
			regs = e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
			consts = cf.consts
			code = cf.code
			pc = fr.pc
			// pc is the caller's suspended OpCall (never fused); complete it.
			cin := &code[pc]
			if cin.dst < 0 { // void call
				pc++
				continue
			}
			dyn++
			if dyn > e.limit {
				if rv, ok = e.tripRet(dyn, cin, rv); !ok {
					return 0, false
				}
			}
			regs[cin.dst] = rv
			pc++
			continue
		}

		var v uint64
		switch in.op {
		case ir.OpAdd:
			v = ir.CanonInt(in.ty, get(regs, consts, in.a)+get(regs, consts, in.b))
		case ir.OpSub:
			v = ir.CanonInt(in.ty, get(regs, consts, in.a)-get(regs, consts, in.b))
		case ir.OpMul:
			v = ir.CanonInt(in.ty, get(regs, consts, in.a)*get(regs, consts, in.b))
		case ir.OpSDiv, ir.OpSRem:
			x := ir.SignedValue(in.ty, get(regs, consts, in.a))
			y := ir.SignedValue(in.ty, get(regs, consts, in.b))
			if y == 0 {
				e.trap = &Trap{Kind: TrapDivZero, Fn: cf.name}
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			minInt := int64(math.MinInt64)
			if in.ty == ir.I32 {
				minInt = math.MinInt32
			}
			if x == minInt && y == -1 {
				e.trap = &Trap{Kind: TrapDivOverflow, Fn: cf.name}
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			if in.op == ir.OpSDiv {
				v = ir.CanonInt(in.ty, uint64(x/y))
			} else {
				v = ir.CanonInt(in.ty, uint64(x%y))
			}
		case ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpAnd, ir.OpOr, ir.OpXor,
			ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpGEP:
			v = evalFusedArith(in.op, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
		case ir.OpICmpEQ, ir.OpICmpNE, ir.OpICmpSLT, ir.OpICmpSLE, ir.OpICmpSGT, ir.OpICmpSGE,
			ir.OpFCmpOEQ, ir.OpFCmpONE, ir.OpFCmpOLT, ir.OpFCmpOLE, ir.OpFCmpOGT, ir.OpFCmpOGE:
			v = evalCmp(in.op, in.srcTy, get(regs, consts, in.a), get(regs, consts, in.b))
		case ir.OpTrunc, ir.OpZExt:
			v = ir.CanonInt(in.ty, get(regs, consts, in.a))
		case ir.OpSExt:
			v = ir.CanonInt(in.ty, uint64(ir.SignedValue(in.srcTy, get(regs, consts, in.a))))
		case ir.OpSIToFP:
			v = math.Float64bits(float64(ir.SignedValue(in.srcTy, get(regs, consts, in.a))))
		case ir.OpFPToSI:
			v = fpToSI(in.ty, math.Float64frombits(get(regs, consts, in.a)))
		case ir.OpSelect:
			if get(regs, consts, in.a)&1 != 0 {
				v = get(regs, consts, in.b)
			} else {
				v = get(regs, consts, in.c)
			}
		case ir.OpAlloca:
			count := int64(get(regs, consts, in.a))
			if count < 0 || count > e.maxMem || e.memTop+count > e.maxMem {
				e.trap = &Trap{Kind: TrapBadAlloc, Fn: cf.name}
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			v = uint64(e.memTop)
			dyn++
			if dyn > e.limit {
				if v, ok = e.trip(pc, dyn, in.id, in.ty, v, -1, nil); !ok {
					return 0, false
				}
			}
			// Claim after the count, so a trip sees the slot untouched.
			// Zeroing claimed stack memory is what lets reset skip clearing
			// e.mem between runs.
			base := e.memTop
			e.memTop += count
			if int64(len(e.mem)) < e.memTop {
				e.growMem(e.memTop)
			}
			e.clearClaimed(base)
			regs[in.dst] = v
			pc++
			continue
		case ir.OpLoad:
			addr := get(regs, consts, in.a)
			if !e.checkAddr(cf.name, addr) {
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			v = ir.CanonInt(in.ty, e.mem[addr])
		case ir.OpStore:
			addr := get(regs, consts, in.b)
			if !e.checkAddr(cf.name, addr) {
				fr.pc, e.dyn = pc, dyn
				return 0, false
			}
			e.store(addr, get(regs, consts, in.a))
			pc++
			continue
		case ir.OpCall:
			if in.callee >= 0 {
				if len(e.frames) >= e.maxDep {
					e.trap = &Trap{Kind: TrapStackOverflow, Fn: e.p.funcs[in.callee].name}
					fr.pc, e.dyn = pc, dyn
					return 0, false
				}
				fr.pc = pc
				callerOff, callerN := fr.regOff, fr.nSlots
				e.pushFrame(in.callee)
				// pushFrame may reallocate the slabs and the frame stack;
				// re-derive the caller's window before reading argument refs.
				callerRegs := e.regSlab[callerOff : callerOff+callerN]
				nf := e.frames[len(e.frames)-1]
				dst := e.regSlab[nf.regOff : nf.regOff+int32(len(in.args))]
				for i, r := range in.args {
					dst[i] = get(callerRegs, consts, r)
				}
				fr = &e.frames[len(e.frames)-1]
				cf = e.p.funcs[fr.fi]
				regs = e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
				consts = cf.consts
				code = cf.code
				pc = 0
				counters[cf.blockBase]++
				continue
			}
			// Intrinsics with a result are pure; the printing and
			// detecting ones are void and never count.
			v = e.intrinsic(in, regs, consts)
			if in.dst < 0 {
				pc++
				continue
			}
		default:
			panic(fmt.Sprintf("interp: unhandled opcode %v", in.op))
		}

		dyn++
		if dyn > e.limit {
			if v, ok = e.trip(pc, dyn, in.id, in.ty, v, -1, nil); !ok {
				return 0, false
			}
		}
		regs[in.dst] = v
		pc++
	}
}
