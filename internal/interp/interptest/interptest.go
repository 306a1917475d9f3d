// Package interptest is a deliberately simple reference interpreter for
// ir.Module programs, the test oracle of internal/interp. It walks the IR
// directly — one instruction at a time, phis resolved on the incoming edge,
// calls as Go recursion, one value slot per static instruction per frame —
// and shares no code with the production engine, so a semantic slip in the
// engine's compiler, superinstruction fusion, block counters or snapshot
// machinery shows up as a disagreement with it.
//
// It reproduces every observable the engine promises: return value, printed
// (quantized) output, the injectable dynamic-instruction clock and its
// budget, trap kind and function, the sdc_detect flag, per-static-
// instruction execution counts, and dynamic or static fault plans applied
// through internal/fault. Taint tracking, checkpoints and batching are
// substrate features of the engine and are checked there, against runs of
// the engine itself.
//
// Import it only from _test.go files.
package interptest

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/xrand"
)

// Trap kinds, spelled as interp.TrapKind renders them.
const (
	TrapOOB           = "out-of-bounds access"
	TrapNull          = "null dereference"
	TrapDivZero       = "division by zero"
	TrapDivOverflow   = "division overflow"
	TrapBadAlloc      = "bad allocation"
	TrapStackOverflow = "stack overflow"
)

// Options mirrors the execution limits and fault plan of interp.Options.
// Zero limits take the engine's defaults.
type Options struct {
	MaxDyn      int64
	MaxMemWords int
	MaxDepth    int
	Plan        *fault.Plan
	FaultRNG    *xrand.RNG
}

// OutVal is one printed value.
type OutVal struct {
	Ty   ir.Type
	Bits uint64
}

// Result is the outcome of one reference execution.
type Result struct {
	Ret            uint64
	Output         []OutVal
	DynCount       int64
	Trap           string // one of the Trap* kinds, "" when the run did not trap
	TrapFn         string // function the trap occurred in
	BudgetExceeded bool
	DetectedFlag   bool
	Counts         []int64 // executions per static instruction ID
	Injected       bool
	InjectedID     int
	InjectedBit    uint8
}

// machine is the interpreter state of one run.
type machine struct {
	opts   Options
	res    *Result
	mem    []uint64
	memTop int64
	maxMem int64
	maxDep int
	occ    int64 // executions of a static plan's target so far
}

// frame is one activation: parameters plus one value slot per static ID.
type frame struct {
	fn     *ir.Function
	params []uint64
	vals   []uint64
}

// Run executes the module's entry function on args. Like the engine it
// never panics on program-level failures.
func Run(m *ir.Module, args []uint64, opts Options) *Result {
	if opts.MaxDyn <= 0 {
		opts.MaxDyn = 1 << 40
	}
	x := &machine{
		opts:   opts,
		res:    &Result{Counts: make([]int64, m.NumInstrs())},
		mem:    make([]uint64, 1),
		memTop: 1, // word 0 is the null page
		maxMem: int64(opts.MaxMemWords),
		maxDep: opts.MaxDepth,
	}
	if x.maxMem <= 0 {
		x.maxMem = 1 << 24
	}
	if x.maxDep <= 0 {
		x.maxDep = 512
	}
	entry := m.Entry()
	if len(args) != len(entry.Params) {
		panic(fmt.Sprintf("interptest: entry %s takes %d args, got %d", entry.Name, len(entry.Params), len(args)))
	}
	if ret, ok := x.call(m, entry, append([]uint64(nil), args...), 1); ok {
		x.res.Ret = ret
	}
	return x.res
}

// produce is the result of one injectable instruction: it advances the dyn
// clock, enforces the budget, counts the execution and applies the fault
// plan when its target is reached. ok is false when the budget ran out.
func (x *machine) produce(in *ir.Instr, v uint64) (uint64, bool) {
	r := x.res
	r.DynCount++
	if r.DynCount > x.opts.MaxDyn {
		r.BudgetExceeded = true
		return 0, false
	}
	r.Counts[in.ID]++
	pl := x.opts.Plan
	if pl == nil || r.Injected {
		return v, true
	}
	hit := false
	switch pl.Mode {
	case fault.ModeDynamic:
		hit = r.DynCount == pl.TargetDyn
	case fault.ModeStatic:
		if in.ID == pl.StaticID {
			x.occ++
			hit = x.occ == pl.Occurrence
		}
	}
	if !hit {
		return v, true
	}
	rng := x.opts.FaultRNG
	var bit uint8
	if pl.Model != nil {
		v = pl.Model.Apply(in.Ty, v, rng)
	} else {
		bit = pl.Bit
		if pl.BitPending() {
			bit = fault.RandomBit(rng, in.Ty)
		}
		v = fault.Flip(in.Ty, v, bit)
		if pl.SecondBitPending() {
			if second, ok := fault.RandomSecondBit(rng, in.Ty, bit); ok {
				v = fault.Flip(in.Ty, v, second)
			}
		} else if pl.SecondBit > 0 && uint8(pl.SecondBit-1) != bit {
			v = fault.Flip(in.Ty, v, uint8(pl.SecondBit-1))
		}
	}
	r.Injected, r.InjectedID, r.InjectedBit = true, in.ID, bit
	return v, true
}

func (x *machine) trap(kind string, fn *ir.Function) bool {
	x.res.Trap, x.res.TrapFn = kind, fn.Name
	return false
}

// operand reads a value in the frame.
func (f *frame) operand(v ir.Value) uint64 {
	switch v := v.(type) {
	case ir.Const:
		return v.Bits
	case *ir.Param:
		return f.params[v.Index]
	case *ir.Instr:
		return f.vals[v.ID]
	}
	panic(fmt.Sprintf("interptest: operand %T", v))
}

// call runs fn to completion at call depth depth. Stack memory claimed by
// the activation is released on return.
func (x *machine) call(m *ir.Module, fn *ir.Function, params []uint64, depth int) (uint64, bool) {
	f := &frame{fn: fn, params: params, vals: make([]uint64, len(x.res.Counts))}
	memBase := x.memTop
	blk := fn.Blocks[0]
	for {
		// Verified blocks end in exactly one terminator.
		body, term := blk.Instrs[:len(blk.Instrs)-1], blk.Instrs[len(blk.Instrs)-1]
		for _, in := range body {
			// Phis were resolved on the incoming edge.
			if in.Op != ir.OpPhi && !x.step(m, f, in, depth) {
				return 0, false
			}
		}
		var next *ir.Block
		switch term.Op {
		case ir.OpRet:
			x.memTop = memBase
			if len(term.Args) == 0 {
				return 0, true
			}
			return f.operand(term.Args[0]), true
		case ir.OpBr:
			next = term.Targets[0]
		case ir.OpCondBr:
			next = term.Targets[1]
			if f.operand(term.Args[0])&1 != 0 {
				next = term.Targets[0]
			}
		}
		if !x.edge(f, blk, next) {
			return 0, false
		}
		blk = next
	}
}

// edge executes the phis of target for the edge from: every incoming value
// is read before any phi is written, then each phi produces in order.
func (x *machine) edge(f *frame, from, target *ir.Block) bool {
	var phis []*ir.Instr
	var vals []uint64
	for _, in := range target.Instrs {
		if in.Op != ir.OpPhi {
			break
		}
		for i, pb := range in.PhiBlocks {
			if pb == from {
				phis = append(phis, in)
				vals = append(vals, f.operand(in.Args[i]))
				break
			}
		}
	}
	for i, phi := range phis {
		v, ok := x.produce(phi, vals[i])
		if !ok {
			return false
		}
		f.vals[phi.ID] = v
	}
	return true
}

// step executes one non-terminator, non-phi instruction.
func (x *machine) step(m *ir.Module, f *frame, in *ir.Instr, depth int) bool {
	arg := func(i int) uint64 { return f.operand(in.Args[i]) }
	flt := func(i int) float64 { return math.Float64frombits(arg(i)) }
	ty := in.Ty
	var v uint64
	switch in.Op {
	case ir.OpAdd:
		v = ir.CanonInt(ty, arg(0)+arg(1))
	case ir.OpSub:
		v = ir.CanonInt(ty, arg(0)-arg(1))
	case ir.OpMul:
		v = ir.CanonInt(ty, arg(0)*arg(1))
	case ir.OpSDiv, ir.OpSRem:
		a, b := ir.SignedValue(ty, arg(0)), ir.SignedValue(ty, arg(1))
		if b == 0 {
			return x.trap(TrapDivZero, f.fn)
		}
		if b == -1 && (ty == ir.I32 && a == math.MinInt32 || ty != ir.I32 && a == math.MinInt64) {
			return x.trap(TrapDivOverflow, f.fn)
		}
		if in.Op == ir.OpSDiv {
			v = ir.CanonInt(ty, uint64(a/b))
		} else {
			v = ir.CanonInt(ty, uint64(a%b))
		}
	case ir.OpShl:
		v = ir.CanonInt(ty, arg(0)<<(arg(1)%uint64(ty.Bits())))
	case ir.OpLShr:
		v = arg(0) >> (arg(1) % uint64(ty.Bits()))
	case ir.OpAShr:
		v = ir.CanonInt(ty, uint64(ir.SignedValue(ty, arg(0))>>(arg(1)%uint64(ty.Bits()))))
	case ir.OpAnd:
		v = arg(0) & arg(1)
	case ir.OpOr:
		v = arg(0) | arg(1)
	case ir.OpXor:
		v = arg(0) ^ arg(1)
	case ir.OpFAdd:
		v = math.Float64bits(flt(0) + flt(1))
	case ir.OpFSub:
		v = math.Float64bits(flt(0) - flt(1))
	case ir.OpFMul:
		v = math.Float64bits(flt(0) * flt(1))
	case ir.OpFDiv:
		v = math.Float64bits(flt(0) / flt(1))
	case ir.OpICmpEQ:
		v = b2u(arg(0) == arg(1))
	case ir.OpICmpNE:
		v = b2u(arg(0) != arg(1))
	case ir.OpICmpSLT, ir.OpICmpSLE, ir.OpICmpSGT, ir.OpICmpSGE:
		st := in.Args[0].Type()
		a, b := ir.SignedValue(st, arg(0)), ir.SignedValue(st, arg(1))
		v = b2u(in.Op == ir.OpICmpSLT && a < b || in.Op == ir.OpICmpSLE && a <= b ||
			in.Op == ir.OpICmpSGT && a > b || in.Op == ir.OpICmpSGE && a >= b)
	case ir.OpFCmpOEQ, ir.OpFCmpONE, ir.OpFCmpOLT, ir.OpFCmpOLE, ir.OpFCmpOGT, ir.OpFCmpOGE:
		a, b := flt(0), flt(1)
		v = b2u(in.Op == ir.OpFCmpOEQ && a == b || in.Op == ir.OpFCmpONE && (a < b || a > b) ||
			in.Op == ir.OpFCmpOLT && a < b || in.Op == ir.OpFCmpOLE && a <= b ||
			in.Op == ir.OpFCmpOGT && a > b || in.Op == ir.OpFCmpOGE && a >= b)
	case ir.OpTrunc, ir.OpZExt:
		v = ir.CanonInt(ty, arg(0))
	case ir.OpSExt:
		v = ir.CanonInt(ty, uint64(ir.SignedValue(in.Args[0].Type(), arg(0))))
	case ir.OpSIToFP:
		v = math.Float64bits(float64(ir.SignedValue(in.Args[0].Type(), arg(0))))
	case ir.OpFPToSI:
		v = fpToSI(ty, flt(0))
	case ir.OpSelect:
		v = arg(2)
		if arg(0)&1 != 0 {
			v = arg(1)
		}
	case ir.OpGEP:
		v = arg(0) + arg(1)
	case ir.OpAlloca:
		n := int64(arg(0))
		if n < 0 || n > x.maxMem || x.memTop+n > x.maxMem {
			return x.trap(TrapBadAlloc, f.fn)
		}
		v = uint64(x.memTop)
		x.memTop += n
		for int64(len(x.mem)) < x.memTop {
			x.mem = append(x.mem, 0)
		}
		clear(x.mem[v:x.memTop])
	case ir.OpLoad:
		addr := arg(0)
		if !x.checkAddr(f.fn, addr) {
			return false
		}
		v = ir.CanonInt(ty, x.mem[addr])
	case ir.OpStore:
		addr := arg(1)
		if !x.checkAddr(f.fn, addr) {
			return false
		}
		x.mem[addr] = arg(0)
		return true
	case ir.OpCall:
		args := make([]uint64, len(in.Args))
		for i := range args {
			args[i] = arg(i)
		}
		if callee := m.Func(in.Callee); callee != nil {
			if depth >= x.maxDep {
				return x.trap(TrapStackOverflow, callee)
			}
			ret, ok := x.call(m, callee, args, depth+1)
			if !ok {
				return false
			}
			v = ret
		} else {
			v = x.intrinsic(in.Callee, args)
		}
		if ty == ir.Void {
			return true
		}
	default:
		panic(fmt.Sprintf("interptest: unhandled opcode %v", in.Op))
	}
	v, ok := x.produce(in, v)
	f.vals[in.ID] = v
	return ok
}

func (x *machine) checkAddr(fn *ir.Function, addr uint64) bool {
	if addr == 0 {
		return x.trap(TrapNull, fn)
	}
	if addr >= uint64(x.memTop) {
		return x.trap(TrapOOB, fn)
	}
	return true
}

func (x *machine) intrinsic(name string, args []uint64) uint64 {
	f := func(i int) float64 { return math.Float64frombits(args[i]) }
	switch name {
	case "sqrt":
		return math.Float64bits(math.Sqrt(f(0)))
	case "fabs":
		return math.Float64bits(math.Abs(f(0)))
	case "exp":
		return math.Float64bits(math.Exp(f(0)))
	case "log":
		return math.Float64bits(math.Log(f(0)))
	case "sin":
		return math.Float64bits(math.Sin(f(0)))
	case "cos":
		return math.Float64bits(math.Cos(f(0)))
	case "pow":
		return math.Float64bits(math.Pow(f(0), f(1)))
	case "floor":
		return math.Float64bits(math.Floor(f(0)))
	case "print_i64":
		x.res.Output = append(x.res.Output, OutVal{Ty: ir.I64, Bits: args[0]})
	case "print_f64":
		x.res.Output = append(x.res.Output, OutVal{Ty: ir.F64, Bits: math.Float64bits(quantize(f(0)))})
	case "sdc_detect":
		x.res.DetectedFlag = true
	default:
		panic(fmt.Sprintf("interptest: unknown intrinsic %q", name))
	}
	return 0
}

// quantize rounds to the six significant digits of printf("%g").
func quantize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
		return v
	}
	q, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
	if err != nil {
		return v
	}
	return q
}

// fpToSI converts with x86 cvttsd2si semantics: NaN and out-of-range values
// yield the target width's minimum integer.
func fpToSI(ty ir.Type, f float64) uint64 {
	if ty == ir.I32 {
		if math.IsNaN(f) || f >= math.MaxInt32+1 || f < math.MinInt32 {
			return ir.CanonInt(ir.I32, 1<<31)
		}
		return ir.CanonInt(ir.I32, uint64(uint32(int32(f))))
	}
	if math.IsNaN(f) || f >= math.MaxInt64 || f < math.MinInt64 {
		return 1 << 63
	}
	return uint64(int64(f))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
