package ir

import (
	"errors"
	"fmt"
)

// Verify checks the structural and type well-formedness of a module:
// every block ends in exactly one terminator (and none appear mid-block);
// operand and result types match each opcode's contract; calls resolve to a
// function or intrinsic with a matching signature; phis cover exactly the
// predecessors of their block; and instruction operands are defined in the
// same function. It returns the first violation found, or nil.
func Verify(m *Module) error {
	if m.Entry() == nil {
		return fmt.Errorf("ir: module %s has no entry function %q", m.Name, m.EntryName)
	}
	for _, f := range m.Funcs {
		if err := verifyFunc(m, f); err != nil {
			return fmt.Errorf("ir: function %s: %w", f.Name, err)
		}
	}
	return nil
}

func verifyFunc(m *Module, f *Function) error {
	if len(f.Blocks) == 0 {
		return errors.New("no blocks")
	}
	preds := predecessors(f)
	defined := make(map[*Instr]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			defined[in] = true
		}
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.Name)
		}
		for i, in := range b.Instrs {
			last := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				if last {
					return fmt.Errorf("block %s does not end in a terminator", b.Name)
				}
				return fmt.Errorf("block %s has terminator %v mid-block", b.Name, in.Op)
			}
			if err := verifyInstr(m, f, b, in, defined, preds); err != nil {
				return fmt.Errorf("block %s, %v: %w", b.Name, in.Op, err)
			}
		}
	}
	return nil
}

// predecessors maps each block to its predecessor blocks in order.
func predecessors(f *Function) map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

func verifyInstr(m *Module, f *Function, b *Block, in *Instr, defined map[*Instr]bool, preds map[*Block][]*Block) error {
	// Operands referencing instructions must be defined in this function.
	for _, a := range in.Args {
		if ai, ok := a.(*Instr); ok {
			if !defined[ai] {
				return fmt.Errorf("operand %%%s defined outside function", ai.Name)
			}
		}
		if ap, ok := a.(*Param); ok {
			if ap.Index >= len(f.Params) || f.Params[ap.Index] != ap {
				return fmt.Errorf("operand parameter %%%s not a parameter of this function", ap.Name)
			}
		}
	}
	if in.Op.IsTerminator() && in.Ty != Void {
		return fmt.Errorf("%v produces no value, but has type %v", in.Op, in.Ty)
	}
	wantArgs := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	switch {
	case in.Op >= OpAdd && in.Op <= OpXor: // integer arith, shifts, logic
		if err := wantArgs(2); err != nil {
			return err
		}
		t := in.Args[0].Type()
		if t != in.Args[1].Type() || t != in.Ty {
			return fmt.Errorf("type mismatch %v/%v -> %v", in.Args[0].Type(), in.Args[1].Type(), in.Ty)
		}
		if t != I32 && t != I64 && !(in.Op.IsLogic() && t == I1) {
			return fmt.Errorf("invalid operand type %v", t)
		}
	case in.Op >= OpFAdd && in.Op <= OpFDiv:
		if err := wantArgs(2); err != nil {
			return err
		}
		if in.Args[0].Type() != F64 || in.Args[1].Type() != F64 || in.Ty != F64 {
			return errors.New("fp arithmetic requires f64")
		}
	case in.Op.IsICmp():
		if err := wantArgs(2); err != nil {
			return err
		}
		t := in.Args[0].Type()
		if t != in.Args[1].Type() || (!t.IsInt() && t != Ptr) || in.Ty != I1 {
			return fmt.Errorf("icmp types %v/%v -> %v", in.Args[0].Type(), in.Args[1].Type(), in.Ty)
		}
	case in.Op.IsFCmp():
		if err := wantArgs(2); err != nil {
			return err
		}
		if in.Args[0].Type() != F64 || in.Args[1].Type() != F64 || in.Ty != I1 {
			return errors.New("fcmp requires f64 operands and i1 result")
		}
	case in.Op == OpTrunc:
		if err := wantArgs(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() || !in.Ty.IsInt() || in.Ty.Bits() >= in.Args[0].Type().Bits() {
			return fmt.Errorf("invalid trunc %v -> %v", in.Args[0].Type(), in.Ty)
		}
	case in.Op == OpSExt || in.Op == OpZExt:
		if err := wantArgs(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() || !in.Ty.IsInt() || in.Ty.Bits() <= in.Args[0].Type().Bits() {
			return fmt.Errorf("invalid ext %v -> %v", in.Args[0].Type(), in.Ty)
		}
	case in.Op == OpSIToFP:
		if err := wantArgs(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() || in.Ty != F64 {
			return errors.New("sitofp requires int -> f64")
		}
	case in.Op == OpFPToSI:
		if err := wantArgs(1); err != nil {
			return err
		}
		if in.Args[0].Type() != F64 || (in.Ty != I32 && in.Ty != I64) {
			return errors.New("fptosi requires f64 -> i32/i64")
		}
	case in.Op == OpAlloca:
		if err := wantArgs(1); err != nil {
			return err
		}
		if in.Args[0].Type() != I64 || in.Ty != Ptr {
			return errors.New("alloca requires i64 count -> ptr")
		}
	case in.Op == OpLoad:
		if err := wantArgs(1); err != nil {
			return err
		}
		if in.Args[0].Type() != Ptr || in.Ty == Void {
			return errors.New("load requires ptr operand and non-void result")
		}
	case in.Op == OpStore:
		if err := wantArgs(2); err != nil {
			return err
		}
		if in.Args[1].Type() != Ptr || in.Ty != Void {
			return errors.New("store requires (value, ptr) and void result")
		}
	case in.Op == OpGEP:
		if err := wantArgs(2); err != nil {
			return err
		}
		if in.Args[0].Type() != Ptr || in.Args[1].Type() != I64 || in.Ty != Ptr {
			return errors.New("gep requires (ptr, i64) -> ptr")
		}
	case in.Op == OpSelect:
		if err := wantArgs(3); err != nil {
			return err
		}
		if in.Args[0].Type() != I1 || in.Args[1].Type() != in.Args[2].Type() || in.Ty != in.Args[1].Type() {
			return errors.New("select requires (i1, T, T) -> T")
		}
	case in.Op == OpPhi:
		if len(in.Args) != len(in.PhiBlocks) || len(in.Args) == 0 {
			return errors.New("phi incoming arity mismatch or empty")
		}
		for _, a := range in.Args {
			if a.Type() != in.Ty {
				return fmt.Errorf("phi incoming type %v, want %v", a.Type(), in.Ty)
			}
		}
		// Incoming blocks must be exactly the block's predecessors.
		want := preds[b]
		if len(want) != len(in.PhiBlocks) {
			return fmt.Errorf("phi has %d incomings, block has %d preds", len(in.PhiBlocks), len(want))
		}
		seen := make(map[*Block]bool, len(in.PhiBlocks))
		for _, pb := range in.PhiBlocks {
			seen[pb] = true
		}
		for _, p := range want {
			if !seen[p] {
				return fmt.Errorf("phi missing incoming for predecessor %s", p.Name)
			}
		}
		// Phis must be grouped at the start of the block.
		for i, other := range b.Instrs {
			if other == in {
				for j := 0; j < i; j++ {
					if b.Instrs[j].Op != OpPhi {
						return errors.New("phi not at block start")
					}
				}
				break
			}
		}
	case in.Op == OpCall:
		params, ret, err := CallSignature(m, in.Callee)
		if err != nil {
			return err
		}
		if in.Ty != ret {
			return fmt.Errorf("call result type %v, callee returns %v", in.Ty, ret)
		}
		if len(in.Args) != len(params) {
			return fmt.Errorf("call has %d args, callee takes %d", len(in.Args), len(params))
		}
		for i, a := range in.Args {
			if a.Type() != params[i] {
				return fmt.Errorf("call arg %d type %v, want %v", i, a.Type(), params[i])
			}
		}
	case in.Op == OpBr:
		if len(in.Targets) != 1 || in.Targets[0] == nil {
			return errors.New("br needs one target")
		}
		if in.Targets[0].Fn != f {
			return errors.New("br target in another function")
		}
	case in.Op == OpCondBr:
		if err := wantArgs(1); err != nil {
			return err
		}
		if in.Args[0].Type() != I1 {
			return errors.New("condbr condition must be i1")
		}
		if len(in.Targets) != 2 || in.Targets[0] == nil || in.Targets[1] == nil {
			return errors.New("condbr needs two targets")
		}
		for _, t := range in.Targets {
			if t.Fn != f {
				return errors.New("condbr target in another function")
			}
		}
	case in.Op == OpRet:
		if f.RetTy == Void {
			if len(in.Args) != 0 {
				return errors.New("ret with value in void function")
			}
		} else {
			if len(in.Args) != 1 || in.Args[0].Type() != f.RetTy {
				return fmt.Errorf("ret must carry one %v value", f.RetTy)
			}
		}
	default:
		return fmt.Errorf("unknown opcode %v", in.Op)
	}
	return nil
}
