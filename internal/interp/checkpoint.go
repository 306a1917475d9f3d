package interp

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/fault"
)

// Golden-prefix checkpointing. A fault-injection trial is byte-identical to
// the golden run until its injection point — the interpreter consumes no
// randomness before the flip and reads no state the golden run did not
// produce — so a campaign of T trials on a D-instruction program wastes
// ~T·D/2 steps replaying the shared prefix. The golden run instead records
// a Snapshot of the complete machine state every `interval` dynamic
// instructions; each trial then resumes from the latest snapshot strictly
// before its injection point and produces bit-identical results (outcome,
// injected ID/bit, dynamic count, output) at a fraction of the work.
//
// Snapshots are recorded by runFast's trip at the first dispatch slot
// boundary after each interval, so a snapshot never splits a fused pair or
// a phi edge. Memory is captured at page granularity, and a page whose
// contents equal the predecessor snapshot's copy shares that copy, so
// snapshot memory scales with the pages written rather than the footprint.
// Execution counts are captured as the block/edge counter space, from
// which occurrences reads any static instruction's count.
//
// Convergence stop. The snapshots also end trials early. Once a trial's
// fault has fired, runFast stops at each later snapshot's dyn clock; if the
// trial is then at a slot boundary in the snapshot's state (matches), the
// rest of the trial is the rest of the golden run, so it ends there and
// reports the golden's end state (runEnd) as its own: a Benign run of the
// golden's DynCount, return value and output.

// pageWords is the snapshot page granularity (4 KiB of word-addressed
// memory); pageShift is its log2.
const (
	pageWords = 512
	pageShift = 9
)

func pageCount(words int64) int64 { return (words + pageWords - 1) >> pageShift }

// Snapshot is a resumable copy of the machine state at one dispatch-slot
// boundary of a fault-free run.
type Snapshot struct {
	dyn      int64
	memTop   int64
	pages    [][]uint64 // mem[i*pageWords:...]; equal pages shared with the previous snapshot
	frames   []frame
	regs     []uint64 // regSlab[:slabTop]
	output   []OutVal
	counters []int64 // block/edge execution counters
	detected bool
}

// runEnd is how a checkpointed golden run ended, recorded only when it
// returned normally, together with the limits it ran under: a trial that
// converges on one of its snapshots finishes exactly as it did, provided
// the trial's own limits are no tighter.
type runEnd struct {
	dyn      int64
	ret      uint64
	output   []OutVal
	detected bool
	maxMem   int64
	maxDep   int
}

// Dyn returns the dynamic instruction count at which the snapshot was taken.
func (s *Snapshot) Dyn() int64 { return s.dyn }

// Checkpoints is the ordered snapshot sequence of one golden run, plus
// usage counters. The counters are updated atomically so parallel campaign
// workers can share one Checkpoints; everything they count is derived from
// the dyn clock, never from scheduling, so they are identical for any
// worker count.
type Checkpoints struct {
	prog     *Program
	interval int64
	snaps    []*Snapshot
	end      *runEnd // nil: the run did not return normally

	restored     atomic.Int64
	scratch      atomic.Int64
	skipped      atomic.Int64
	converged    atomic.Int64
	convergedDyn atomic.Int64
}

// Interval returns the snapshot spacing in dynamic instructions.
func (c *Checkpoints) Interval() int64 { return c.interval }

// Snapshots returns the number of recorded snapshots.
func (c *Checkpoints) Snapshots() int { return len(c.snaps) }

// CheckpointStats aggregates checkpoint usage. All values derive from the
// dynamic-instruction clock, so they are schedule-independent and safe to
// emit into deterministic telemetry traces.
type CheckpointStats struct {
	// Snapshots is the number of checkpoints recorded on the golden run;
	// Interval their spacing (when aggregating across goldens, the first
	// non-zero interval is kept).
	Snapshots int
	Interval  int64
	// Restored counts trials resumed from a snapshot; Scratch counts trials
	// that ran from dynamic instruction 0 because no snapshot preceded
	// their injection point.
	Restored int64
	Scratch  int64
	// SkippedDyn is the total count of golden-prefix dynamic instructions
	// the resumed trials did not have to re-execute.
	SkippedDyn int64
	// Converged counts trials that ended early at the convergence stop,
	// their state equal to a later snapshot's; ConvergedDyn is the
	// golden-suffix dynamic instructions they did not execute.
	Converged    int64
	ConvergedDyn int64
}

// Accumulate folds another sample into s, for aggregating usage across the
// many goldens of a search or baseline.
func (st *CheckpointStats) Accumulate(o CheckpointStats) {
	st.Snapshots += o.Snapshots
	if st.Interval == 0 {
		st.Interval = o.Interval
	}
	st.Restored += o.Restored
	st.Scratch += o.Scratch
	st.SkippedDyn += o.SkippedDyn
	st.Converged += o.Converged
	st.ConvergedDyn += o.ConvergedDyn
}

// Stats returns the current usage counters.
func (c *Checkpoints) Stats() CheckpointStats {
	if c == nil {
		return CheckpointStats{}
	}
	return CheckpointStats{
		Snapshots:    len(c.snaps),
		Interval:     c.interval,
		Restored:     c.restored.Load(),
		Scratch:      c.scratch.Load(),
		SkippedDyn:   c.skipped.Load(),
		Converged:    c.converged.Load(),
		ConvergedDyn: c.convergedDyn.Load(),
	}
}

// AutoCheckpointInterval picks the snapshot spacing for a golden run of
// dynCount dynamic instructions: ~64 snapshots across the run, but never
// denser than every 64 instructions so snapshot cost stays well below the
// replay cost it saves.
func AutoCheckpointInterval(dynCount int64) int64 {
	const targetSnapshots = 64
	k := dynCount / targetSnapshots
	if k < 64 {
		k = 64
	}
	return k
}

// takeSnapshot records the current machine state into e.ckpt and arms the
// next checkpoint. Called only from trip at a slot boundary of a
// fault-free checkpointed run, with the top frame's pc and e.dyn synced.
func (e *exec) takeSnapshot() {
	c := e.ckpt
	var prev *Snapshot
	if n := len(c.snaps); n > 0 {
		prev = c.snaps[n-1]
	}
	pages := make([][]uint64, pageCount(e.memTop))
	if covered := int64(len(pages)) * pageWords; int64(len(e.mem)) < covered {
		e.growMem(covered) // whole pages to compare and copy
	}
	for i := range pages {
		pg := e.mem[i*pageWords : (i+1)*pageWords]
		if prev != nil && i < len(prev.pages) && slices.Equal(prev.pages[i], pg) {
			pages[i] = prev.pages[i]
		} else {
			pages[i] = slices.Clone(pg)
		}
	}
	c.snaps = append(c.snaps, &Snapshot{
		dyn:      e.dyn,
		memTop:   e.memTop,
		pages:    pages,
		frames:   slices.Clone(e.frames),
		regs:     slices.Clone(e.regSlab[:e.slabTop]),
		output:   slices.Clone(e.output),
		counters: slices.Clone(e.blockCounts),
		detected: e.detected,
	})
	e.nextCkpt = e.dyn + c.interval
}

// restoreInto rebuilds the snapshot's machine state inside a fresh or reset
// exec.
func (s *Snapshot) restoreInto(e *exec) {
	e.dyn = s.dyn
	e.memTop = s.memTop
	covered := int64(len(s.pages)) * pageWords
	if int64(len(e.mem)) < covered {
		e.growMem(covered)
	}
	for i, pg := range s.pages {
		copy(e.mem[int64(i)*pageWords:], pg)
	}
	e.memHW = max(e.memHW, covered)
	if len(s.regs) > len(e.regSlab) {
		e.growSlab(len(s.regs))
	}
	e.slabTop = copy(e.regSlab, s.regs)
	e.frames = append(e.frames[:0], s.frames...)
	e.output = append(e.output[:0], s.output...)
	copy(e.blockCounts, s.counters)
	e.detected = s.detected
	// The golden prefix is taint-free (taint exists only downstream of an
	// injection), so a fresh exec's zeroed shadows are already correct;
	// only their sizes must track memory.
	if e.taintMem != nil && len(e.taintMem) < len(e.mem) {
		t := make([]bool, len(e.mem))
		copy(t, e.taintMem)
		e.taintMem = t
	}
}

// matches reports whether e, at a slot boundary of a trial whose fault has
// fired, is in the snapshot's state in everything the rest of the run can
// observe: the frames, the live register windows, memory below memTop, the
// output and the detection flag. Block counters are not compared (after the
// injection nothing reads them), nor is memory at or above memTop (an
// alloca zeroes what it claims before anything can load it). The cheap
// length checks go first, memory last.
func (s *Snapshot) matches(e *exec) bool {
	if e.memTop != s.memTop || e.slabTop != len(s.regs) || len(e.frames) != len(s.frames) ||
		len(e.output) != len(s.output) || e.detected != s.detected {
		return false
	}
	if !slices.Equal(e.frames, s.frames) || !slices.Equal(e.regSlab[:e.slabTop], s.regs) ||
		!slices.Equal(e.output, s.output) {
		return false
	}
	for i, pg := range s.pages {
		lo := int64(i) * pageWords
		n := min(pageWords, s.memTop-lo)
		if !slices.Equal(e.mem[lo:lo+n], pg[:n]) {
			return false
		}
	}
	return true
}

// probeFor returns c when a trial on e may stop at c's snapshots once its
// fault fires: the golden run returned normally, within the trial's budget
// and under limits no wider than the trial's, so a trial that converges on
// it would finish the same way. Otherwise it returns nil.
func (c *Checkpoints) probeFor(e *exec) *Checkpoints {
	if c == nil || c.end == nil || c.end.dyn > e.maxDyn || c.end.maxMem > e.maxMem || c.end.maxDep > e.maxDep {
		return nil
	}
	return c
}

// ForPlan returns the latest snapshot whose state still precedes the plan's
// injection point — the resume point from which the trial is bit-identical
// to a from-scratch run — or nil when no snapshot qualifies (injection
// before the first checkpoint, or no plan).
func (c *Checkpoints) ForPlan(plan *fault.Plan) *Snapshot {
	if c == nil || plan == nil || len(c.snaps) == 0 {
		return nil
	}
	var before func(s *Snapshot) bool
	switch plan.Mode {
	case fault.ModeDynamic:
		// The fault fires when dyn reaches TargetDyn, so a state with
		// dyn < TargetDyn is still on the shared prefix.
		before = func(s *Snapshot) bool { return s.dyn < plan.TargetDyn }
	case fault.ModeStatic:
		// Still on the prefix while the target static instruction has
		// executed fewer than Occurrence times.
		before = func(s *Snapshot) bool {
			return occurrences(c.prog, s.counters, s.frames, plan.StaticID) < plan.Occurrence
		}
	default:
		return nil
	}
	// `before` is monotone non-increasing along the snapshot sequence, so
	// binary-search for the last qualifying snapshot.
	n := sort.Search(len(c.snaps), func(i int) bool { return !before(c.snaps[i]) })
	if n == 0 {
		return nil
	}
	return c.snaps[n-1]
}

// RunWithCheckpoints is Run for fault-injection trials against a
// checkpointed golden run: the trial resumes from the nearest snapshot before
// its injection point when one exists, and falls back to a full run
// otherwise (including when c is nil). Results are bit-identical to
// Run(p, args, opts) — DynCount continues from the snapshot's dyn clock,
// the RNG is first consumed at injection, and output/memory/stack state
// below the snapshot is exactly the golden prefix's.
func RunWithCheckpoints(p *Program, args []uint64, c *Checkpoints, opts Options) *Result {
	if s := c.resumePoint(p, opts.Plan); s != nil {
		return runFrom(p, s, nil, opts)
	}
	return Run(p, args, opts)
}

// resumePoint returns the snapshot a trial of plan on p resumes from (nil:
// from the entry) and counts the choice in c's usage counters. A nil c
// counts nothing.
func (c *Checkpoints) resumePoint(p *Program, plan *fault.Plan) *Snapshot {
	if c == nil {
		return nil
	}
	if c.prog != p {
		panic(fmt.Sprintf("interp: checkpoints belong to a different program (%p vs %p)", c.prog, p))
	}
	s := c.ForPlan(plan)
	if s != nil {
		c.restored.Add(1)
		c.skipped.Add(s.dyn)
	} else {
		c.scratch.Add(1)
	}
	return s
}
