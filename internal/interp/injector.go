package interp

import (
	"repro/internal/fault"
	"repro/internal/xrand"
)

// Injector runs fault-injection trials of one Program on a single reused
// machine, the trial-side counterpart of Profiler. Each trial rewinds the
// machine to its start state — a Snapshot restore when one precedes the
// injection point, otherwise the entry frame — and runs it on runFast with
// the fault armed as a stop (see trip); once the fault fires, the trial
// stops early if its state reconverges on a later golden snapshot, taking
// the golden run's end state. The result (outcome fields,
// DynCount, output, injected ID/bit, detection flag) is bit-identical to a
// fresh-machine Run or RunWithCheckpoints of the same plan, while memory,
// register slabs and the output buffer are allocated once per Injector
// instead of once per trial.
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
// own plans and streams, and track neither counts nor taint.
func NewInjector(p *Program, opts Options) *Injector {
	if opts.Plan != nil || opts.FaultRNG != nil || opts.Profile || opts.TrackPropagation || opts.CheckpointInterval > 0 {
		panic("interp: Injector options must not set Plan, FaultRNG, Profile, TrackPropagation or CheckpointInterval")
	}
	return &Injector{p: p, e: newExec(p, opts)}
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
	e.reset(e.maxDyn)
	in.plan = *plan
	e.plan, e.rng = &in.plan, rng
	e.probe = c.probeFor(e)
	e.start(s, args)
	ret, _ := e.runFast()
	if e.converged {
		ret = c.end.ret
	}
	in.res = e.outcome(ret)
	e.plan, e.rng, e.probe = nil, nil, nil
	return &in.res
}
