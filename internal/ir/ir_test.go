package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// buildSumLoop builds: func main(n i64) i64 { s=0; for i=0..n { s+=i }; ret s }
// using phis, exercising blocks, phi verification and the printer.
func buildSumLoop(t testing.TB) *Module {
	m := NewModule("sumloop")
	f := m.NewFunc("main", I64, &Param{Name: "n", Ty: I64})
	b := NewBuilder(f)
	entry := b.Cur
	loop := b.Block("loop")
	body := b.Block("body")
	exit := b.Block("exit")

	b.SetBlock(entry)
	b.Br(loop)

	b.SetBlock(loop)
	i := b.Phi(I64)
	s := b.Phi(I64)
	cond := b.ICmp(OpICmpSLT, i, b.ParamByName("n"))
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	s2 := b.Add(s, i)
	i2 := b.Add(i, I64c(1))
	b.Br(loop)

	AddIncoming(i, I64c(0), entry)
	AddIncoming(i, i2, body)
	AddIncoming(s, I64c(0), entry)
	AddIncoming(s, s2, body)

	b.SetBlock(exit)
	b.Ret(s)

	m.Finalize()
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestTypeStrings(t *testing.T) {
	cases := map[Type]string{Void: "void", I1: "i1", I32: "i32", I64: "i64", F64: "f64", Ptr: "ptr"}
	for ty, want := range cases {
		if ty.String() != want {
			t.Errorf("Type %d string %q, want %q", ty, ty.String(), want)
		}
		if ty != Void {
			back, err := ParseType(want)
			if err != nil || back != ty {
				t.Errorf("ParseType(%q) = %v, %v", want, back, err)
			}
		}
	}
	if _, err := ParseType("i128"); err == nil {
		t.Error("ParseType should reject unknown type")
	}
}

func TestTypeBits(t *testing.T) {
	if I1.Bits() != 1 || I32.Bits() != 32 || I64.Bits() != 64 || F64.Bits() != 64 || Ptr.Bits() != 64 {
		t.Fatal("wrong type widths")
	}
	if Void.Bits() != 0 {
		t.Fatal("void width should be 0")
	}
}

func TestConstCanonicalization(t *testing.T) {
	c := ConstInt(I32, -1)
	if c.Bits != 0xFFFFFFFF {
		t.Fatalf("i32 -1 bits = %x", c.Bits)
	}
	if SignedValue(I32, c.Bits) != -1 {
		t.Fatalf("signed i32 = %d", SignedValue(I32, c.Bits))
	}
	b := ConstInt(I1, 3)
	if b.Bits != 1 {
		t.Fatalf("i1 canonicalization: %x", b.Bits)
	}
	f := ConstFloat(2.5)
	if math.Float64frombits(f.Bits) != 2.5 {
		t.Fatal("float const round-trip")
	}
}

func TestCanonIntProperty(t *testing.T) {
	f := func(bits uint64) bool {
		return CanonInt(I1, bits) <= 1 &&
			CanonInt(I32, bits) <= 0xFFFFFFFF &&
			CanonInt(I64, bits) == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundaryClassification(t *testing.T) {
	boundary := []Op{OpICmpEQ, OpFCmpOLT, OpAnd, OpOr, OpXor, OpTrunc, OpSExt, OpZExt, OpShl, OpLShr, OpAShr, OpGEP, OpAlloca}
	for _, op := range boundary {
		if !op.IsBoundary() {
			t.Errorf("%v should be a boundary op", op)
		}
	}
	nonBoundary := []Op{OpAdd, OpSub, OpMul, OpFAdd, OpFMul, OpLoad, OpStore, OpCall, OpSelect, OpPhi, OpBr, OpRet, OpSIToFP, OpFPToSI}
	for _, op := range nonBoundary {
		if op.IsBoundary() {
			t.Errorf("%v should not be a boundary op", op)
		}
	}
}

func TestFinalizeAssignsDenseIDs(t *testing.T) {
	m := buildSumLoop(t)
	instrs := m.Instrs()
	if len(instrs) == 0 {
		t.Fatal("no instructions")
	}
	for id, in := range instrs {
		if in.ID != id {
			t.Fatalf("instr %d has ID %d", id, in.ID)
		}
		if !in.Injectable() {
			t.Fatalf("non-injectable instr %v in table", in.Op)
		}
	}
	// Void instructions get ID -1.
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Ty == Void && in.ID != -1 {
					t.Fatalf("void instr %v has ID %d", in.Op, in.ID)
				}
			}
		}
	}
}

func TestStaticInstructionCount(t *testing.T) {
	m := buildSumLoop(t)
	// entry: br; loop: 2 phi + icmp + condbr; body: 2 add + br; exit: ret = 9
	if got := m.StaticInstructionCount(); got != 9 {
		t.Fatalf("static count = %d, want 9", got)
	}
	if got := m.NumInstrs(); got != 5 { // 2 phi, icmp, 2 add
		t.Fatalf("injectable count = %d, want 5", got)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.Add(I64c(1), I64c(2)) // no terminator
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("want terminator error, got %v", err)
	}
}

func TestVerifyCatchesEmptyBlock(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	f.NewBlock("entry")
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("want empty-block error, got %v", err)
	}
}

func TestVerifyCatchesBadCall(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.Call(F64, "nosuchfn", F64c(1))
	b.Ret(nil)
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "unknown callee") {
		t.Fatalf("want unknown-callee error, got %v", err)
	}
}

func TestVerifyCatchesCallArityMismatch(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	b.Call(F64, "sqrt") // sqrt takes one arg
	b.Ret(nil)
	if err := Verify(m); err == nil {
		t.Fatal("want arity error")
	}
}

func TestVerifyCatchesPhiPredMismatch(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", I64)
	b := NewBuilder(f)
	entry := b.Cur
	next := b.Block("next")
	other := b.Block("other")
	b.SetBlock(entry)
	b.Br(next)
	b.SetBlock(next)
	phi := b.Phi(I64)
	AddIncoming(phi, I64c(1), other) // wrong predecessor
	b.Ret(phi)
	b.SetBlock(other)
	b.Ret(I64c(0))
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "phi") {
		t.Fatalf("want phi error, got %v", err)
	}
}

func TestVerifyCatchesCrossFunctionOperand(t *testing.T) {
	m := NewModule("bad")
	f1 := m.NewFunc("helper", I64)
	b1 := NewBuilder(f1)
	v := b1.Add(I64c(1), I64c(2))
	b1.Ret(v)
	f2 := m.NewFunc("main", I64)
	b2 := NewBuilder(f2)
	w := b2.Add(v, I64c(3)) // v belongs to helper
	b2.Ret(w)
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "outside function") {
		t.Fatalf("want cross-function error, got %v", err)
	}
}

func TestBuilderPanicsOnTypeMismatch(t *testing.T) {
	m := NewModule("p")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	assertPanics(t, "add i64+f64", func() { b.Add(I64c(1), F64c(2)) })
	assertPanics(t, "fadd int", func() { b.FAdd(I64c(1), I64c(2)) })
	assertPanics(t, "load from int", func() { b.Load(I64, I64c(0)) })
	assertPanics(t, "select non-bool", func() { b.Select(I64c(1), I64c(1), I64c(2)) })
	assertPanics(t, "trunc widen", func() { b.Trunc(I32c(1), I64) })
	assertPanics(t, "emit after terminator", func() {
		b.Ret(nil)
		b.Add(I64c(1), I64c(1))
	})
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := buildSumLoop(t)
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if err := Verify(m2); err != nil {
		t.Fatalf("verify parsed: %v", err)
	}
	text2 := Print(m2)
	if text != text2 {
		t.Fatalf("round-trip mismatch:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestPrintParseRoundTripRich(t *testing.T) {
	// Exercise every operand kind: floats, calls, memory, casts, select.
	m := NewModule("rich")
	f := m.NewFunc("main", F64, &Param{Name: "x", Ty: F64}, &Param{Name: "k", Ty: I64})
	b := NewBuilder(f)
	buf := b.AllocaN(8)
	b.Store(b.Param(0), buf)
	ld := b.Load(F64, buf)
	p2 := b.GEP(buf, I64c(1))
	b.Store(b.FMul(ld, F64c(1.5)), p2)
	s := b.Call(F64, "sqrt", b.Load(F64, p2))
	k32 := b.Trunc(b.Param(1), I32)
	k64 := b.SExt(k32, I64)
	kf := b.SIToFP(k64)
	cond := b.FCmp(OpFCmpOGT, s, kf)
	sel := b.Select(cond, s, kf)
	b.Call(Void, "print_f64", sel)
	b.Ret(sel)
	m.Finalize()
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}

	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if err := Verify(m2); err != nil {
		t.Fatalf("verify parsed: %v", err)
	}
	if Print(m2) != text {
		t.Fatal("round-trip mismatch")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"modul x",
		"module m\nfunc @f() i64 {\nentry:\n  %a : i64 = bogus(i64 1)\n}",
		"module m\nfunc @f() i64 {\nentry:\n  %a : i64 = add(i64 %nope, i64 1)\n  ret(i64 %a)\n}",
		"module m\nfunc @f() i64 {\nentry:\n  br missing\n}",
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestParseFloatSpecials(t *testing.T) {
	src := `module m
entry main

func @main() f64 {
entry:
  %a : f64 = fadd(f64 +inf, f64 -inf)
  %b : f64 = fadd(f64 %a, f64 nan)
  ret(f64 %b)
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if Print(m) != src {
		t.Fatalf("specials round-trip:\n%s\nvs\n%s", Print(m), src)
	}
}

func TestCallSignature(t *testing.T) {
	m := buildSumLoop(t)
	params, ret, err := CallSignature(m, "main")
	if err != nil || ret != I64 || len(params) != 1 || params[0] != I64 {
		t.Fatalf("CallSignature(main) = %v %v %v", params, ret, err)
	}
	params, ret, err = CallSignature(m, "pow")
	if err != nil || ret != F64 || len(params) != 2 {
		t.Fatalf("CallSignature(pow) = %v %v %v", params, ret, err)
	}
	if _, _, err = CallSignature(m, "nope"); err == nil {
		t.Fatal("want error for unknown callee")
	}
}

func TestSuccsAndTerminator(t *testing.T) {
	m := buildSumLoop(t)
	f := m.Entry()
	loop := f.Blocks[1]
	succs := loop.Succs()
	if len(succs) != 2 {
		t.Fatalf("loop succs = %d", len(succs))
	}
	exit := f.Blocks[3]
	if len(exit.Succs()) != 0 {
		t.Fatal("exit should have no successors")
	}
	if exit.Terminator().Op != OpRet {
		t.Fatal("exit terminator should be ret")
	}
}

func TestVerifyCatchesStoreToNonPointer(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	in := &Instr{Op: OpStore, Ty: Void, Args: []Value{I64c(1), I64c(2)}}
	b := NewBuilder(f)
	b.Cur.Instrs = append(b.Cur.Instrs, in)
	b.Ret(nil)
	if err := Verify(m); err == nil {
		t.Fatal("want store-type error")
	}
}

func TestVerifyCatchesRetTypeMismatch(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", I64)
	in := &Instr{Op: OpRet, Ty: Void, Args: []Value{F64c(1)}}
	f.NewBlock("entry").Instrs = append(f.Blocks[0].Instrs, in)
	if err := Verify(m); err == nil {
		t.Fatal("want ret-type error")
	}
}

// TestVerifyCatchesTypedTerminator: the parser accepts `%v : i64 = br
// head`, and a typed terminator would get a static ID although it produces
// no value, so Verify must reject it.
func TestVerifyCatchesTypedTerminator(t *testing.T) {
	src := "module m\nentry main\n\nfunc @main() void {\nentry:\n  br head\nhead:\n  %v : i64 = br head\n}\n"
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "produces no value") {
		t.Fatalf("want typed-terminator error, got %v", err)
	}
}

func TestVerifyCatchesCondBrNonBool(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", Void)
	b := NewBuilder(f)
	other := b.Block("other")
	in := &Instr{Op: OpCondBr, Ty: Void, Args: []Value{I64c(1)}, Targets: []*Block{other, other}}
	b.Cur.Instrs = append(b.Cur.Instrs, in)
	b.SetBlock(other)
	b.Ret(nil)
	if err := Verify(m); err == nil {
		t.Fatal("want condbr-type error")
	}
}

func TestVerifyCatchesPhiMidBlock(t *testing.T) {
	m := NewModule("bad")
	f := m.NewFunc("main", I64)
	b := NewBuilder(f)
	entry := b.Cur
	next := b.Block("next")
	b.Br(next)
	b.SetBlock(next)
	add := b.Add(I64c(1), I64c(2))
	phi := b.Phi(I64)
	AddIncoming(phi, add, entry)
	b.Ret(phi)
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "phi") {
		t.Fatalf("want phi-placement error, got %v", err)
	}
}

func TestModuleFuncLookup(t *testing.T) {
	m := buildSumLoop(t)
	if m.Func("main") == nil || m.Func("missing") != nil {
		t.Fatal("Func lookup wrong")
	}
	if m.Entry() == nil {
		t.Fatal("entry missing")
	}
	m.EntryName = "missing"
	if err := Verify(m); err == nil {
		t.Fatal("verify must require the entry function")
	}
}
