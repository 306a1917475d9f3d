package interp

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/ir"
)

// The per-instruction loop. Only Options.TrackPropagation runs take it:
// dynamic taint tracking needs a shadow bit per register and memory word
// and a hook on every produced value, which is exactly what runFast's
// block counters avoid. Everything else — goldens, profiles, snapshots and
// fault-injection trials — runs on runFast. The loop injects through the
// shared applyFault and counts a static plan's target occurrences per
// instruction from the occSeen that start derived from the counters.

// result records the production of a value by static instruction id,
// applying the fault plan when the target dynamic instance is reached.
// It returns the (possibly corrupted) value and false when the run must
// abort (dynamic budget exceeded).
func (e *exec) result(id int32, ty ir.Type, v uint64) (uint64, bool) {
	e.dyn++
	if e.dyn > e.maxDyn {
		e.budget = true
		return v, false
	}
	if e.plan != nil && !e.injected {
		hit := false
		switch e.plan.Mode {
		case fault.ModeDynamic:
			hit = e.dyn == e.plan.TargetDyn
		case fault.ModeStatic:
			if int(id) == e.plan.StaticID {
				e.occSeen++
				hit = e.occSeen == e.plan.Occurrence
			}
		}
		if hit {
			v = e.applyFault(id, ty, v)
		}
	}
	return v, true
}

// taintOf reads the taint of an operand ref (constants are never tainted).
func taintOf(taint []bool, r ref) bool { return r >= 0 && taint[r] }

// noteTaint records that static instruction id produced a corrupted value.
func (e *exec) noteTaint(id int32) {
	e.taintStats.TaintedDyn++
	if !e.taintStatic[id] {
		e.taintStatic[id] = true
		e.taintStats.TaintedStatic++
	}
}

// produce commits value v of static instruction id to register dst with
// taint tIn (the operands' taint), tainting it also when this very value
// received the fault. It returns false when the run must abort.
func (e *exec) produce(regs []uint64, taint []bool, dst, id int32, ty ir.Type, v uint64, tIn bool) bool {
	preInj := e.injected
	v, ok := e.result(id, ty, v)
	if !ok {
		return false
	}
	regs[dst] = v
	t := tIn || (e.injected && !preInj)
	taint[dst] = t
	if t {
		e.noteTaint(id)
	}
	return true
}

// applyMoves performs the parallel phi copies for a CFG edge.
func (e *exec) applyMoves(moves []move, regs, consts []uint64, taint []bool) bool {
	if len(moves) == 0 {
		return true
	}
	if cap(e.taintMoveBuf) < len(moves) {
		e.moveBuf = make([]uint64, len(moves))
		e.taintMoveBuf = make([]bool, len(moves))
	}
	buf, tb := e.moveBuf[:len(moves)], e.taintMoveBuf[:len(moves)]
	for i, mv := range moves {
		buf[i] = get(regs, consts, mv.src)
		tb[i] = taintOf(taint, mv.src)
	}
	for i, mv := range moves {
		if !e.produce(regs, taint, mv.dst, mv.phiID, mv.ty, buf[i], tb[i]) {
			return false
		}
	}
	return true
}

// storeTainted performs a store of src to the word at addr, tainting the
// word when the value or the address is tainted.
func (e *exec) storeTainted(regs, consts []uint64, taint []bool, src, ptr ref, addr uint64) {
	e.store(addr, get(regs, consts, src))
	tVal, tPtr := taintOf(taint, src), taintOf(taint, ptr)
	e.taintMem[addr] = tVal || tPtr
	if tVal || tPtr {
		e.taintStats.TaintedMemWrites++
	}
	if tPtr {
		e.taintStats.WildStores++
	}
}

// run drives the per-instruction taint-tracking loop over the explicit
// frame stack from the current machine state (at least one frame pushed,
// possibly restored from a Snapshot) until the entry frame returns. It
// returns (retValue, ok); on !ok the run aborted (trap or budget),
// recorded in e.
func (e *exec) run() (uint64, bool) {
	// Locals caching the active frame; re-derived via reenter on every
	// push/pop and whenever the slabs are reallocated.
	var (
		fr     *frame
		cf     *compiledFunc
		regs   []uint64
		taint  []bool
		consts []uint64
		code   []inst
		pc     int32
	)
	reenter := func() {
		fr = &e.frames[len(e.frames)-1]
		cf = e.p.funcs[fr.fi]
		regs = e.regSlab[fr.regOff : fr.regOff+fr.nSlots]
		taint = e.taintSlab[fr.regOff : fr.regOff+fr.nSlots]
		consts = cf.consts
		code = cf.code
		pc = fr.pc
	}
	reenter()

	for {
		in := &code[pc]
		switch in.op {
		case ir.OpBr:
			if !e.applyMoves(in.movesA, regs, consts, taint) {
				return 0, false
			}
			pc = in.jumpA
			continue
		case ir.OpCondBr:
			if taintOf(taint, in.a) {
				e.taintStats.TaintedBranches++
			}
			if get(regs, consts, in.a)&1 != 0 {
				if !e.applyMoves(in.movesA, regs, consts, taint) {
					return 0, false
				}
				pc = in.jumpA
			} else {
				if !e.applyMoves(in.movesB, regs, consts, taint) {
					return 0, false
				}
				pc = in.jumpB
			}
			continue
		case ir.OpRet:
			var rv uint64
			e.retTaint = false
			if cf.retTy != ir.Void {
				rv = get(regs, consts, in.a)
				e.retTaint = taintOf(taint, in.a)
			}
			// Pop: stack memory and the register window are reclaimed by
			// lowering the watermarks.
			e.memTop = fr.memBase
			e.slabTop = int(fr.regOff)
			e.frames = e.frames[:len(e.frames)-1]
			if len(e.frames) == 0 {
				return rv, true
			}
			reenter()
			// pc is the caller's suspended OpCall; complete it with the
			// callee's return value.
			if cin := &code[pc]; cin.dst >= 0 && !e.produce(regs, taint, cin.dst, cin.id, cin.ty, rv, e.retTaint) {
				return 0, false
			}
			pc++
			continue

		// Fused superinstructions. Each handler replays its pair
		// sub-instruction by sub-instruction — a produce per value, taint
		// per operand set, traps in source order — so injections landing on
		// either half behave exactly as on the unfused instruction sequence.
		case opFusedCmpBr:
			v := evalCmp(in.op1, in.srcTy, get(regs, consts, in.a), get(regs, consts, in.b))
			if !e.produce(regs, taint, in.dst, in.id, in.ty, v, taintOf(taint, in.a) || taintOf(taint, in.b)) {
				return 0, false
			}
			if taint[in.dst] {
				e.taintStats.TaintedBranches++
			}
			if regs[in.dst]&1 != 0 {
				if !e.applyMoves(in.movesA, regs, consts, taint) {
					return 0, false
				}
				pc = in.jumpA
			} else {
				if !e.applyMoves(in.movesB, regs, consts, taint) {
					return 0, false
				}
				pc = in.jumpB
			}
			continue

		case opFusedLoadArith:
			addr := get(regs, consts, in.a)
			if !e.checkAddr(cf.name, addr) {
				return 0, false
			}
			v := ir.CanonInt(in.ty, e.mem[addr])
			if !e.produce(regs, taint, in.dst, in.id, in.ty, v, taintOf(taint, in.a) || e.taintMem[addr]) {
				return 0, false
			}
			v2 := evalFusedArith(in.op2, in.ty2, get(regs, consts, in.a2), get(regs, consts, in.b2))
			if !e.produce(regs, taint, in.dst2, in.id2, in.ty2, v2, taintOf(taint, in.a2) || taintOf(taint, in.b2)) {
				return 0, false
			}
			pc++
			continue

		case opFusedArithLoad:
			v := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			if !e.produce(regs, taint, in.dst, in.id, in.ty, v, taintOf(taint, in.a) || taintOf(taint, in.b)) {
				return 0, false
			}
			addr := get(regs, consts, in.a2)
			if !e.checkAddr(cf.name, addr) {
				return 0, false
			}
			v2 := ir.CanonInt(in.ty2, e.mem[addr])
			if !e.produce(regs, taint, in.dst2, in.id2, in.ty2, v2, taintOf(taint, in.a2) || e.taintMem[addr]) {
				return 0, false
			}
			pc++
			continue

		case opFusedArithStore:
			v := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			if !e.produce(regs, taint, in.dst, in.id, in.ty, v, taintOf(taint, in.a) || taintOf(taint, in.b)) {
				return 0, false
			}
			addr := get(regs, consts, in.b2)
			if !e.checkAddr(cf.name, addr) {
				return 0, false
			}
			e.storeTainted(regs, consts, taint, in.a2, in.b2, addr)
			pc++
			continue

		case opFusedArithArith:
			v := evalFusedArith(in.op1, in.ty, get(regs, consts, in.a), get(regs, consts, in.b))
			if !e.produce(regs, taint, in.dst, in.id, in.ty, v, taintOf(taint, in.a) || taintOf(taint, in.b)) {
				return 0, false
			}
			v2 := evalFusedArith(in.op2, in.ty2, get(regs, consts, in.a2), get(regs, consts, in.b2))
			if !e.produce(regs, taint, in.dst2, in.id2, in.ty2, v2, taintOf(taint, in.a2) || taintOf(taint, in.b2)) {
				return 0, false
			}
			pc++
			continue
		}

		var v uint64
		tIn := in.nargs > 0 && taintOf(taint, in.a) ||
			in.nargs > 1 && taintOf(taint, in.b) ||
			in.nargs > 2 && taintOf(taint, in.c)
		switch in.op {
		case ir.OpSDiv, ir.OpSRem:
			x := ir.SignedValue(in.ty, get(regs, consts, in.a))
			y := ir.SignedValue(in.ty, get(regs, consts, in.b))
			if y == 0 {
				e.trap = &Trap{Kind: TrapDivZero, Fn: cf.name}
				return 0, false
			}
			minInt := int64(math.MinInt64)
			if in.ty == ir.I32 {
				minInt = math.MinInt32
			}
			if x == minInt && y == -1 {
				e.trap = &Trap{Kind: TrapDivOverflow, Fn: cf.name}
				return 0, false
			}
			if in.op == ir.OpSDiv {
				v = ir.CanonInt(in.ty, uint64(x/y))
			} else {
				v = ir.CanonInt(in.ty, uint64(x%y))
			}
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpLShr, ir.OpAShr, ir.OpAnd, ir.OpOr, ir.OpXor,
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
				return 0, false
			}
			base := e.memTop
			e.memTop += count
			if int64(len(e.mem)) < e.memTop {
				e.growMem(e.memTop)
			}
			// Zero the region: stack memory may be reused across frames and
			// determinism requires a fixed initial state.
			e.clearClaimed(base)
			clear(e.taintMem[base:e.memTop])
			tIn = false // a fresh allocation's address is clean
			v = uint64(base)
		case ir.OpLoad:
			addr := get(regs, consts, in.a)
			if !e.checkAddr(cf.name, addr) {
				return 0, false
			}
			tIn = tIn || e.taintMem[addr]
			v = ir.CanonInt(in.ty, e.mem[addr])
		case ir.OpStore:
			addr := get(regs, consts, in.b)
			if !e.checkAddr(cf.name, addr) {
				return 0, false
			}
			e.storeTainted(regs, consts, taint, in.a, in.b, addr)
			pc++
			continue
		case ir.OpCall:
			if in.callee >= 0 {
				// User call: suspend this frame and push the callee; its
				// return value is delivered by the OpRet resume path above.
				if len(e.frames) >= e.maxDep {
					e.trap = &Trap{Kind: TrapStackOverflow, Fn: e.p.funcs[in.callee].name}
					return 0, false
				}
				fr.pc = pc
				callerOff, callerN := fr.regOff, fr.nSlots
				e.pushFrame(in.callee)
				// pushFrame may reallocate the slabs and the frame stack;
				// re-derive the caller's window before reading argument refs.
				callerRegs := e.regSlab[callerOff : callerOff+callerN]
				callerTaint := e.taintSlab[callerOff : callerOff+callerN]
				nf := e.frames[len(e.frames)-1]
				for i, r := range in.args {
					e.regSlab[nf.regOff+int32(i)] = get(callerRegs, consts, r)
					e.taintSlab[nf.regOff+int32(i)] = taintOf(callerTaint, r)
				}
				reenter()
				continue
			}
			// An intrinsic's result is tainted by any tainted argument.
			tIn = false
			for _, r := range in.args {
				tIn = tIn || taintOf(taint, r)
			}
			if intr := -in.callee - 1; tIn && (intr == intrPrintI64 || intr == intrPrintF64) {
				e.taintStats.TaintedOutputs++
			}
			v = e.intrinsic(in, regs, consts)
			if in.dst < 0 { // void call (print intrinsics)
				pc++
				continue
			}
		default:
			panic(fmt.Sprintf("interp: unhandled opcode %v", in.op))
		}
		if !e.produce(regs, taint, in.dst, in.id, in.ty, v, tIn) {
			return 0, false
		}
		pc++
	}
}
