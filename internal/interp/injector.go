package interp

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// Injector runs fault-injection trials of one Program on a single reused
// machine, the trial-side counterpart of Profiler. Each trial rewinds the
// machine to its start state — a Snapshot restore when one precedes the
// injection point, otherwise the entry frame — runs the generic engine only
// until the armed fault has fired, and finishes the post-injection tail on
// the lean fast-path loop. No plan state is consulted downstream of the
// injection, so the result (outcome fields, DynCount, output, injected
// ID/bit, detection flag) is bit-identical to a fresh-exec RunFrom or Run
// of the same plan, while memory, register slabs and the output buffer are
// allocated once per Injector instead of once per trial.
//
// An Injector is not safe for concurrent use; hold one per worker, for the
// duration of one campaign call.
type Injector struct {
	p    *Program
	e    *exec
	plan fault.Plan // the current trial's plan; a copy keeps callers' plans off the heap
	res  Result
}

// NewInjector returns an Injector for p. opts supplies the per-trial limits
// (MaxDyn, MaxMemWords, MaxDepth); Plan, FaultRNG, Profile,
// TrackPropagation and CheckpointInterval must be unset — trials carry their
// own plans and streams, and the lean tail tracks neither counts nor taint.
func NewInjector(p *Program, opts Options) *Injector {
	if opts.Plan != nil || opts.FaultRNG != nil || opts.Profile || opts.TrackPropagation || opts.CheckpointInterval > 0 {
		panic("interp: Injector options must not set Plan, FaultRNG, Profile, TrackPropagation or CheckpointInterval")
	}
	e := newExec(p, Options{MaxDyn: opts.MaxDyn, MaxMemWords: opts.MaxMemWords, MaxDepth: opts.MaxDepth})
	e.blockCounts = make([]int64, p.CounterLen()) // runFast scratch; never read
	e.injector = true
	return &Injector{p: p, e: e}
}

// Run executes one trial of plan against a golden run on args: it resumes
// from the latest snapshot of c that precedes the injection point (counting
// the resume in c's usage counters, like RunWithCheckpoints) or starts from
// the entry when none qualifies or c is nil. rng resolves deferred bit
// draws at injection time. The returned Result — Output included — is owned
// by the Injector and valid only until its next trial.
func (in *Injector) Run(args []uint64, c *Checkpoints, plan *fault.Plan, rng *xrand.RNG) *Result {
	s := c.resumePoint(in.p, plan)
	e := in.e
	e.resetFast(e.maxDyn)
	e.injected, e.injID, e.injBit, e.occSeen, e.paused = false, 0, 0, 0, false
	if s != nil {
		s.restoreInto(e)
		if plan.Mode == fault.ModeStatic {
			if s.counts == nil {
				panic("interp: static-mode plan resumed from a snapshot of an unprofiled run")
			}
			e.occSeen = s.counts[plan.StaticID]
		}
	} else {
		entry := in.p.funcs[in.p.entry]
		if len(args) != entry.nParams {
			panic(fmt.Sprintf("interp: entry %s takes %d args, got %d", entry.name, entry.nParams, len(args)))
		}
		e.pushFrame(in.p.entry)
		copy(e.regSlab[:len(args)], args)
	}
	in.plan = *plan
	e.plan = &in.plan
	e.rng = rng
	if plan.Mode == fault.ModeStatic {
		e.nextCkpt = e.dyn + (plan.Occurrence - e.occSeen)
	} else {
		e.nextCkpt = plan.TargetDyn
	}
	ret, ok := e.run()
	if !ok && e.paused {
		e.paused = false
		e.nextCkpt = math.MaxInt64
		ret, _ = e.runFast()
	}
	in.res = e.outcome(ret)
	e.plan, e.rng = nil, nil
	return &in.res
}

// injectBoundary is an injector trial's boundary hook: once the fault has
// fired the run suspends so the trial can switch to the fast-path tail.
// Until then (a static plan whose conservative stop undershot the actual
// occurrence) the stop is re-armed from the remaining occurrence distance,
// which the target's at-most-one-per-dyn execution rate makes safe.
func (e *exec) injectBoundary() bool {
	if e.injected {
		return false
	}
	if pl := e.plan; pl.Mode == fault.ModeStatic {
		e.nextCkpt = e.dyn + (pl.Occurrence - e.occSeen)
	} else {
		// A dynamic target at or below the current dyn can no longer fire.
		e.nextCkpt = math.MaxInt64
	}
	return true
}
