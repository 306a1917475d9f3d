package core

import (
	"sync"

	"repro/internal/interp"
	"repro/internal/prog"
)

// FitnessEval is a reusable candidate-evaluation context for one benchmark
// and score vector: the §4.2.5 fitness Σᵢ Pᵢ·(Nᵢ/N_total) evaluated through
// the interpreter's profiling fast path. The per-instruction scores are
// folded once into block/edge counter space (Program.CounterScores), and
// each evaluation is one fast-path run plus a loop over the counter space —
// no per-instruction work, no InstrCounts materialization.
//
// Evaluations are allocation-free in steady state: each concurrent
// evaluation borrows a context owning a Profiler (machine state reused
// across runs) and an argument-encoding buffer from the evaluator's free
// list, so concurrent GA candidate evaluation scales without sharing mutable
// state. The free list belongs to the FitnessEval, not to a process-wide
// sync.Pool, so its machines become garbage together with the evaluator
// instead of lingering in the runtime's pool caches after a search ends.
type FitnessEval struct {
	b             *prog.Benchmark
	counterScores []float64

	mu   sync.Mutex
	free []*fitnessCtx
}

type fitnessCtx struct {
	prof *interp.Profiler
	args []uint64
}

// NewFitnessEval builds an evaluator for one benchmark and score vector.
func NewFitnessEval(b *prog.Benchmark, scores []float64) *FitnessEval {
	return &FitnessEval{b: b, counterScores: b.Prog.CounterScores(scores)}
}

// get borrows an evaluation context, building one when every context is in
// use; put returns it.
func (fe *FitnessEval) get() *fitnessCtx {
	fe.mu.Lock()
	if n := len(fe.free); n > 0 {
		ctx := fe.free[n-1]
		fe.free = fe.free[:n-1]
		fe.mu.Unlock()
		return ctx
	}
	fe.mu.Unlock()
	return &fitnessCtx{prof: interp.NewProfiler(fe.b.Prog)}
}

func (fe *FitnessEval) put(ctx *fitnessCtx) {
	fe.mu.Lock()
	fe.free = append(fe.free, ctx)
	fe.mu.Unlock()
}

// Eval runs one candidate and returns its fitness and the dynamic
// instructions spent. Inputs whose fault-free run fails — including runs
// that raise sdc_detect — score 0 (§3.1.2 excludes error-raising inputs).
// Safe for concurrent use.
func (fe *FitnessEval) Eval(input []float64) (float64, int64) {
	ctx := fe.get()
	ctx.args = fe.b.EncodeInto(ctx.args[:0], input)
	r := ctx.prof.Run(ctx.args, fe.b.MaxDyn)
	f := r.Fitness(fe.counterScores)
	dyn := r.DynCount
	fe.put(ctx)
	return f, dyn
}

// EvalProbe is Eval plus coverage feedback: it copies the candidate run's
// block/edge hit counters into dst (grown as needed) and returns them with
// the fitness and dynamic-instruction spend. Failed runs return nil counters
// (and fitness 0), which is the rare-branch fuzzer's invalid-candidate
// signal. Safe for concurrent use, though each caller should own its dst.
func (fe *FitnessEval) EvalProbe(input []float64, dst []int64) (float64, []int64, int64) {
	ctx := fe.get()
	ctx.args = fe.b.EncodeInto(ctx.args[:0], input)
	r := ctx.prof.Run(ctx.args, fe.b.MaxDyn)
	f := r.Fitness(fe.counterScores)
	dyn := r.DynCount
	if r.Failed() {
		fe.put(ctx)
		return 0, nil, dyn
	}
	dst = r.Counters(dst)
	fe.put(ctx)
	return f, dst, dyn
}
