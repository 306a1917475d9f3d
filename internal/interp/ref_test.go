package interp

import (
	"testing"

	"repro/internal/interp/interptest"
)

// Helpers that check the engine against the reference interpreter in
// internal/interp/interptest. They live in package interp so the
// white-box suites (fusion, injector, checkpoint) and the external
// benchmark-level suite share one definition of "same behaviour".

// refRun executes p's module on the reference interpreter with the same
// limits and fault plan as opts.
func refRun(p *Program, args []uint64, opts Options) *interptest.Result {
	return interptest.Run(p.Mod, args, interptest.Options{
		MaxDyn: opts.MaxDyn, MaxMemWords: opts.MaxMemWords, MaxDepth: opts.MaxDepth,
		Plan: opts.Plan, FaultRNG: opts.FaultRNG,
	})
}

// trapString renders an engine trap in the reference's vocabulary.
func trapString(tr *Trap) (kind, fn string) {
	if tr == nil {
		return "", ""
	}
	return tr.Kind.String(), tr.Fn
}

// checkObservables compares the observables every execution mode shares.
func checkObservables(t testing.TB, label string, ret uint64, out []OutVal, dyn int64, tr *Trap, budget, detected bool, want *interptest.Result) {
	t.Helper()
	if ret != want.Ret || dyn != want.DynCount || budget != want.BudgetExceeded || detected != want.DetectedFlag {
		t.Fatalf("%s: result mismatch vs reference: ret %d/%d dyn %d/%d budget %v/%v detected %v/%v",
			label, ret, want.Ret, dyn, want.DynCount, budget, want.BudgetExceeded, detected, want.DetectedFlag)
	}
	if kind, fn := trapString(tr); kind != want.Trap || fn != want.TrapFn {
		t.Fatalf("%s: trap %q in %q, reference %q in %q", label, kind, fn, want.Trap, want.TrapFn)
	}
	if len(out) != len(want.Output) {
		t.Fatalf("%s: %d output values, reference %d", label, len(out), len(want.Output))
	}
	for i, o := range out {
		if o.Ty != want.Output[i].Ty || o.Bits != want.Output[i].Bits {
			t.Fatalf("%s: output %d = %v, reference %v", label, i, o, want.Output[i])
		}
	}
}

// checkCounts compares a per-instruction count vector with the reference.
func checkCounts(t testing.TB, label string, got []int64, want *interptest.Result) {
	t.Helper()
	if len(got) != len(want.Counts) {
		t.Fatalf("%s: %d counts, reference %d", label, len(got), len(want.Counts))
	}
	bad := false
	for id := range got {
		if got[id] != want.Counts[id] {
			t.Errorf("%s: instr %d count %d, reference %d", label, id, got[id], want.Counts[id])
			bad = true
		}
	}
	if bad {
		t.FailNow()
	}
}

// checkRef compares an engine Result with a reference run: observables,
// injection site and bit, and — for profiled runs — the count vector.
func checkRef(t testing.TB, label string, got *Result, want *interptest.Result) {
	t.Helper()
	checkObservables(t, label, got.Ret, got.Output, got.DynCount, got.Trap, got.BudgetExceeded, got.DetectedFlag, want)
	if got.Injected != want.Injected || (got.Injected && (got.InjectedID != want.InjectedID || got.InjectedBit != want.InjectedBit)) {
		t.Fatalf("%s: injection %v id %d bit %d, reference %v id %d bit %d", label,
			got.Injected, got.InjectedID, got.InjectedBit, want.Injected, want.InjectedID, want.InjectedBit)
	}
	if got.InstrCounts != nil {
		checkCounts(t, label, got.InstrCounts, want)
	}
}

// checkProfileRef compares a Profiler run with a reference run, including
// the reconstructed per-instruction counts and coverage.
func checkProfileRef(t testing.TB, label string, r *ProfileRun, want *interptest.Result) {
	t.Helper()
	checkObservables(t, label, r.Ret, r.Output, r.DynCount, r.Trap, r.BudgetExceeded, r.DetectedFlag, want)
	checkCounts(t, label, r.InstrCounts(nil), want)
	covered := 0
	for _, c := range want.Counts {
		if c > 0 {
			covered++
		}
	}
	if got := r.CoveredInstrs(); got != covered {
		t.Fatalf("%s: %d covered instructions, reference %d", label, got, covered)
	}
}

// Exported to the benchmark-level suites of package interp_test, which
// cannot live in package interp (internal/prog imports it).
var (
	RefRun          = refRun
	CheckRef        = checkRef
	CheckProfileRef = checkProfileRef
)
