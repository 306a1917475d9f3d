// Package campaign runs statistical fault-injection campaigns over compiled
// programs, playing the role LLFI plays in the original paper (§3.1.3-3.1.4):
// golden runs, single-bit-flip trials, outcome classification into
// SDC / crash / hang / benign, whole-program SDC probability measurement
// (1000 trials in the paper) and per-instruction SDC probability measurement
// (100 trials per instruction in the paper's initial study, 30 in PEPPA-X's
// reduced sensitivity derivation).
package campaign

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Outcome classifies one fault-injection trial per the paper's terms (§2.2).
type Outcome uint8

// Trial outcomes.
const (
	// Benign: program output matches the golden run despite the fault.
	Benign Outcome = iota
	// SDC: output mismatch with no visible failure symptom.
	SDC
	// Crash: a hardware trap terminated the program.
	Crash
	// Hang: the run exceeded its dynamic-instruction budget.
	Hang
	// Detected: a protection mechanism (selective instruction duplication)
	// caught the corrupted value before it propagated (§6).
	Detected
)

func (o Outcome) String() string {
	switch o {
	case Benign:
		return "benign"
	case SDC:
		return "sdc"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// hangBudgetMultiplier scales the golden run's dynamic count into the
// faulty-run budget; exceeding it classifies the trial as a hang.
const hangBudgetMultiplier = 3

// hangBudgetSlack is added on top for very short programs.
const hangBudgetSlack = 10000

// Golden holds a reference (fault-free) execution of a program on an input.
type Golden struct {
	Input       []uint64
	Output      []interp.OutVal
	DynCount    int64
	InstrCounts []int64 // per static instruction
	NumInstrs   int

	// Checkpoints, when non-nil, holds golden-prefix snapshots of the run
	// (NewGoldenCheckpointed / EnsureCheckpoints); Classify then resumes
	// each trial from the nearest snapshot before its injection point
	// instead of re-interpreting the shared prefix. Results are
	// bit-identical either way.
	Checkpoints *interp.Checkpoints
}

// Coverage returns the static-instruction coverage of the golden run.
func (g *Golden) Coverage() float64 {
	n := 0
	for _, c := range g.InstrCounts {
		if c > 0 {
			n++
		}
	}
	if g.NumInstrs == 0 {
		return 0
	}
	return float64(n) / float64(g.NumInstrs)
}

// ErrInvalidInput is returned by NewGolden when the fault-free run itself
// fails — such inputs are excluded from experiments per §3.1.2 ("the input
// should not lead to any reported errors or exceptions").
var ErrInvalidInput = fmt.Errorf("campaign: input fails fault-free execution")

// NewGolden executes the program fault-free with profiling and returns the
// reference run. maxDyn bounds the fault-free execution itself (0 for the
// interpreter default); inputs whose golden run traps or exceeds the bound
// are rejected with ErrInvalidInput.
func NewGolden(p *interp.Program, input []uint64, maxDyn int64) (*Golden, error) {
	return newGolden(p, input, interp.Options{Profile: true, MaxDyn: maxDyn})
}

func newGolden(p *interp.Program, input []uint64, opts interp.Options) (*Golden, error) {
	r := interp.Run(p, input, opts)
	if r.Trap != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, r.Trap)
	}
	if r.BudgetExceeded {
		return nil, fmt.Errorf("%w: exceeded %d dynamic instructions", ErrInvalidInput, opts.MaxDyn)
	}
	if r.DynCount == 0 {
		return nil, fmt.Errorf("%w: program executed no injectable instructions", ErrInvalidInput)
	}
	if r.DetectedFlag {
		return nil, fmt.Errorf("%w: fault-free run raised sdc_detect (broken instrumentation)", ErrInvalidInput)
	}
	return &Golden{
		Input:       input,
		Output:      r.Output,
		DynCount:    r.DynCount,
		InstrCounts: r.InstrCounts,
		NumInstrs:   p.NumInstrs(),
		Checkpoints: r.Checkpoints,
	}, nil
}

// GoldenFromProfile materializes a Golden from a fast-path profiled run
// (interp.Profiler), applying the same §3.1.2 validity checks as NewGolden.
// The run's borrowed state (output, counters) is copied, so the Golden
// stays valid after the profiler's next run; maxDyn is only reported in the
// budget-exceeded error. The result carries no Checkpoints — callers that
// go on to run FI campaigns attach them with EnsureCheckpoints.
func GoldenFromProfile(r *interp.ProfileRun, input []uint64, maxDyn int64) (*Golden, error) {
	if r.Trap != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, r.Trap)
	}
	if r.BudgetExceeded {
		return nil, fmt.Errorf("%w: exceeded %d dynamic instructions", ErrInvalidInput, maxDyn)
	}
	if r.DynCount == 0 {
		return nil, fmt.Errorf("%w: program executed no injectable instructions", ErrInvalidInput)
	}
	if r.DetectedFlag {
		return nil, fmt.Errorf("%w: fault-free run raised sdc_detect (broken instrumentation)", ErrInvalidInput)
	}
	return &Golden{
		Input:       append([]uint64(nil), input...),
		Output:      append([]interp.OutVal(nil), r.Output...),
		DynCount:    r.DynCount,
		InstrCounts: r.InstrCounts(nil),
		NumInstrs:   r.Program().NumInstrs(),
	}, nil
}

// Checkpoint interval sentinels, shared by every knob that threads a
// checkpoint interval through to NewGoldenCheckpointed (core.Options,
// core.BaselineOptions, experiments.Config, the -checkpoint-interval CLI
// flags). Positive values fix the snapshot spacing in dynamic instructions.
const (
	// CheckpointAuto derives the snapshot spacing from the golden run's
	// dynamic instruction count (interp.AutoCheckpointInterval).
	CheckpointAuto int64 = 0
	// CheckpointDisabled turns golden-prefix checkpointing off: every trial
	// re-executes from dynamic instruction 0.
	CheckpointDisabled int64 = -1
)

// NewGoldenCheckpointed is NewGolden plus golden-prefix snapshots every
// `interval` dynamic instructions (CheckpointAuto tunes the spacing from
// the run's dynamic count; CheckpointDisabled yields a plain golden).
// Campaigns classified against a checkpointed golden resume each trial from
// the nearest snapshot before its injection point — bit-identical results
// for a fraction of the interpreter work.
func NewGoldenCheckpointed(p *interp.Program, input []uint64, maxDyn, interval int64) (*Golden, error) {
	if interval < 0 {
		return NewGolden(p, input, maxDyn)
	}
	if interval == CheckpointAuto {
		g, err := NewGolden(p, input, maxDyn)
		if err != nil {
			return nil, err
		}
		if err := g.EnsureCheckpoints(p, CheckpointAuto); err != nil {
			return nil, err
		}
		return g, nil
	}
	return newGolden(p, input, interp.Options{Profile: true, MaxDyn: maxDyn, CheckpointInterval: interval})
}

// EnsureCheckpoints attaches golden-prefix snapshots to an existing golden
// by replaying it with checkpointing enabled. It is a no-op when snapshots
// are already attached or interval is CheckpointDisabled; CheckpointAuto
// derives the spacing from DynCount. The replay must reproduce the original
// run exactly — a divergence means the substrate broke determinism, which
// would silently poison every trial, so it is surfaced as an error.
func (g *Golden) EnsureCheckpoints(p *interp.Program, interval int64) error {
	if g.Checkpoints != nil || interval < 0 {
		return nil
	}
	if interval == CheckpointAuto {
		interval = interp.AutoCheckpointInterval(g.DynCount)
	}
	// The original golden may come from a block-counting Profiler run
	// (GoldenFromProfile) rather than a profiled Run, so the divergence
	// check below also compares those two execution paths on one input.
	r := interp.Run(p, g.Input, interp.Options{Profile: true, CheckpointInterval: interval})
	if r.Trap != nil || r.BudgetExceeded || r.DynCount != g.DynCount || !interp.OutputEqual(r.Output, g.Output) {
		return fmt.Errorf("campaign: checkpoint replay diverged from the golden run")
	}
	g.Checkpoints = r.Checkpoints
	return nil
}

// CheckpointStats returns the golden's checkpoint usage counters (the zero
// value when the golden is not checkpointed).
func (g *Golden) CheckpointStats() interp.CheckpointStats {
	return g.Checkpoints.Stats()
}

// EmitCheckpointTelemetry folds a checkpoint usage sample into a telemetry
// stream: recorder counters plus one trace event. Every field derives from
// the dynamic-instruction clock (snapshot positions, per-trial prefix
// skips), never from wall time or scheduling, so traces stay byte-identical
// across worker counts. No-op for an un-checkpointed sample.
func EmitCheckpointTelemetry(tr *telemetry.Stream, event string, st interp.CheckpointStats) {
	if st.Snapshots == 0 {
		return
	}
	tr.Count("checkpoint.snapshots", int64(st.Snapshots))
	tr.Count("checkpoint.restored", st.Restored)
	tr.Count("checkpoint.scratch", st.Scratch)
	tr.Count("checkpoint.skipped_dyn", st.SkippedDyn)
	// Convergence is counted in metrics only; the trace event keeps its
	// fields.
	tr.Count("checkpoint.converged", st.Converged)
	tr.Count("checkpoint.converged_dyn", st.ConvergedDyn)
	tr.Emit(event,
		telemetry.F("snapshots", st.Snapshots),
		telemetry.F("interval", st.Interval),
		telemetry.F("restored", st.Restored),
		telemetry.F("scratch", st.Scratch),
		telemetry.F("skipped_dyn", st.SkippedDyn))
}

// Classify runs one faulty execution under plan and classifies it against
// the golden run. The returned static ID is the instruction that received
// the fault (-1 if the fault did not activate, which Classify reports as
// Benign since the execution is then identical to golden). When the golden
// carries checkpoints, the trial resumes from the nearest snapshot before
// its injection point; outcome, injected ID/bit and dynamic count are
// bit-identical to a from-scratch run either way. Each call builds a fresh
// trial machine; the campaign loops below reuse one across their trials.
func Classify(p *interp.Program, g *Golden, plan fault.Plan, rng *xrand.RNG, detector func(staticID int) bool) (Outcome, int, int64) {
	return classify(newInjector(p, g), g, &plan, rng, detector)
}

// newInjector returns a trial machine for campaigns against g, armed with
// the golden's hang budget. It lives for one campaign call (one per worker);
// goldens never hold one, so they stay shareable across goroutines.
func newInjector(p *interp.Program, g *Golden) *interp.Injector {
	return interp.NewInjector(p, interp.Options{MaxDyn: g.DynCount*hangBudgetMultiplier + hangBudgetSlack})
}

// classify is Classify on a caller-held injector.
func classify(inj *interp.Injector, g *Golden, plan *fault.Plan, rng *xrand.RNG, detector func(staticID int) bool) (Outcome, int, int64) {
	r := inj.Run(g.Input, g.Checkpoints, plan, rng)
	switch {
	case !r.Injected:
		return Benign, -1, r.DynCount
	case r.DetectedFlag:
		// The program's own duplication instrumentation (duplication pass)
		// caught the corruption and fail-stopped.
		return Detected, r.InjectedID, r.DynCount
	case detector != nil && detector(r.InjectedID):
		// Selective instruction duplication compares the original and
		// duplicated results at the protected instruction, detecting any
		// corruption of its return value before it propagates.
		return Detected, r.InjectedID, r.DynCount
	case r.Trap != nil:
		return Crash, r.InjectedID, r.DynCount
	case r.BudgetExceeded:
		return Hang, r.InjectedID, r.DynCount
	case !interp.OutputEqual(g.Output, r.Output):
		return SDC, r.InjectedID, r.DynCount
	}
	return Benign, r.InjectedID, r.DynCount
}

// Counts aggregates trial outcomes.
type Counts struct {
	Trials   int
	SDC      int
	Crash    int
	Hang     int
	Benign   int
	Detected int

	// DynInstrs is the total dynamic instructions executed across the
	// trials — the cost currency used to give PEPPA-X and the baseline
	// equal search budgets (§5.1) and to model analysis time (Table 5).
	DynInstrs int64
}

// Add accumulates one outcome. Unknown outcomes panic: silently counting
// them as Benign would deflate measured SDC probabilities the moment the
// Outcome enum grows, which is exactly the kind of corruption a statistical
// FI campaign cannot detect after the fact.
func (c *Counts) Add(o Outcome) {
	c.Trials++
	switch o {
	case SDC:
		c.SDC++
	case Crash:
		c.Crash++
	case Hang:
		c.Hang++
	case Detected:
		c.Detected++
	case Benign:
		c.Benign++
	default:
		panic(fmt.Sprintf("campaign: Counts.Add: unknown outcome %d", uint8(o)))
	}
}

// Merge folds another tally into c — the shard-merge primitive. Every field
// is an independent integer sum, so merging per-shard tallies in shard order
// yields exactly the tally a single process accumulates folding the same
// trials in global index order.
func (c *Counts) Merge(o Counts) {
	c.Trials += o.Trials
	c.SDC += o.SDC
	c.Crash += o.Crash
	c.Hang += o.Hang
	c.Benign += o.Benign
	c.Detected += o.Detected
	c.DynInstrs += o.DynInstrs
}

// Fields renders the tally as telemetry event fields, in a fixed order, for
// per-campaign trace events. Every value is a schedule-independent integer,
// so emitting them preserves trace determinism.
func (c Counts) Fields() []telemetry.Field {
	return []telemetry.Field{
		telemetry.F("trials", c.Trials),
		telemetry.F("sdc", c.SDC),
		telemetry.F("crash", c.Crash),
		telemetry.F("hang", c.Hang),
		telemetry.F("benign", c.Benign),
		telemetry.F("detected", c.Detected),
		telemetry.F("dyn", c.DynInstrs),
	}
}

// SDCProbability returns the fraction of trials that were SDCs — the
// paper's "SDC probability given that the fault was activated".
func (c Counts) SDCProbability() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.SDC) / float64(c.Trials)
}

// SDCInterval returns the true 95% Wilson score bounds of the SDC
// probability — the honest interval to report alongside SDCProbability.
func (c Counts) SDCInterval() (lo, hi float64) {
	return stats.WilsonInterval95(c.SDC, c.Trials)
}

// Overall measures the whole-program SDC probability of an input with the
// given number of random single-bit-flip trials (the paper uses 1000).
// Each trial samples a uniform dynamic instruction and flips a uniform bit
// of its return value.
func Overall(p *interp.Program, g *Golden, trials int, rng *xrand.RNG) Counts {
	return OverallProtected(p, g, trials, rng, nil)
}

// OverallProtected is Overall with an optional protection detector: faults
// landing on static instructions for which detector returns true are
// classified Detected (used by the §6 stress-test case study).
func OverallProtected(p *interp.Program, g *Golden, trials int, rng *xrand.RNG, detector func(int) bool) Counts {
	return OverallModelCtx(nil, p, g, trials, rng, detector, nil)
}

// OverallModelCtx is OverallProtected with cooperative cancellation and an
// explicit fault model. Once ctx is canceled the loop stops at the next
// trial boundary and returns the tally of the trials that completed
// (Counts.Trials says how many); a nil or Background ctx costs one nil
// check per trial. A nil model is the single-bit-flip default and
// reproduces OverallProtected byte-for-byte; other models draw each trial's
// plan (and its injection-time corruption) from the same serial stream.
func OverallModelCtx(ctx context.Context, p *interp.Program, g *Golden, trials int, rng *xrand.RNG, detector func(int) bool, m fault.Model) Counts {
	var c Counts
	inj := newInjector(p, g)
	for i := 0; i < trials; i++ {
		if ctxCanceled(ctx) {
			break
		}
		plan := samplePlan(m, rng, g.DynCount)
		o, _, dyn := classify(inj, g, &plan, rng, detector)
		c.Add(o)
		c.DynInstrs += dyn
	}
	return c
}

// ctxCanceled reports whether ctx is canceled, treating nil as "never".
func ctxCanceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// InstrResult is the measured SDC statistics of one static instruction.
type InstrResult struct {
	ID     int
	Counts Counts
}

// PerInstruction measures the SDC probability of each static instruction in
// ids with trialsPerInstr faults targeted at random dynamic occurrences of
// that instruction (the paper's per-instruction methodology). Instructions
// that never execute under the input are skipped (zero-trial result).
func PerInstruction(p *interp.Program, g *Golden, ids []int, trialsPerInstr int, rng *xrand.RNG) []InstrResult {
	out := make([]InstrResult, 0, len(ids))
	inj := newInjector(p, g)
	for _, id := range ids {
		res := InstrResult{ID: id}
		if execCount := g.InstrCounts[id]; execCount > 0 {
			ty := p.InstrType(id)
			for t := 0; t < trialsPerInstr; t++ {
				plan := fault.SampleStatic(rng, id, ty, execCount)
				o, _, dyn := classify(inj, g, &plan, rng, nil)
				res.Counts.Add(o)
				res.Counts.DynInstrs += dyn
			}
		}
		out = append(out, res)
	}
	return out
}

// AllInstructionIDs returns the IDs 0..n-1 for a program — convenience for
// whole-program per-instruction campaigns.
func AllInstructionIDs(p *interp.Program) []int {
	ids := make([]int, p.NumInstrs())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// PerInstructionVector expands per-instruction results into a dense vector
// of SDC probabilities indexed by static ID (never-executed instructions
// get 0), the form consumed by Spearman stability analysis (Table 3).
func PerInstructionVector(numInstrs int, results []InstrResult) []float64 {
	v := make([]float64, numInstrs)
	for _, r := range results {
		v[r.ID] = r.Counts.SDCProbability()
	}
	return v
}
