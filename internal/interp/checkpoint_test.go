package interp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// ckptProgs are small white-box programs covering loops, recursion (frame
// stack depth across snapshots), memory traffic and printed output.
func ckptProgs(t *testing.T) map[string]struct {
	p    *Program
	args []uint64
} {
	t.Helper()
	return map[string]struct {
		p    *Program
		args []uint64
	}{
		"sumloop":   {buildSumLoop(t), []uint64{200}},
		"memory":    {buildMemory(t), []uint64{30}},
		"factorial": {buildFactorial(t), []uint64{9}},
	}
}

func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Ret != got.Ret || want.DynCount != got.DynCount ||
		want.Injected != got.Injected || want.InjectedID != got.InjectedID ||
		want.InjectedBit != got.InjectedBit || want.BudgetExceeded != got.BudgetExceeded ||
		want.DetectedFlag != got.DetectedFlag {
		t.Fatalf("%s: result mismatch\nscratch: %+v\nresumed: %+v", label, want, got)
	}
	if (want.Trap == nil) != (got.Trap == nil) || (want.Trap != nil && *want.Trap != *got.Trap) {
		t.Fatalf("%s: trap mismatch: %v vs %v", label, want.Trap, got.Trap)
	}
	if !OutputEqual(want.Output, got.Output) {
		t.Fatalf("%s: output mismatch: %v vs %v", label, want.Output, got.Output)
	}
	if want.InstrCounts != nil || got.InstrCounts != nil {
		if !reflect.DeepEqual(want.InstrCounts, got.InstrCounts) {
			t.Fatalf("%s: instruction count mismatch", label)
		}
	}
	if (want.Propagation == nil) != (got.Propagation == nil) ||
		(want.Propagation != nil && *want.Propagation != *got.Propagation) {
		t.Fatalf("%s: propagation mismatch: %+v vs %+v", label, want.Propagation, got.Propagation)
	}
}

// TestCheckpointSchedule verifies snapshot spacing and the ForPlan
// selection invariant (latest snapshot strictly before the injection point).
func TestCheckpointSchedule(t *testing.T) {
	for name, tc := range ckptProgs(t) {
		const interval = 10
		r := Run(tc.p, tc.args, Options{Profile: true, CheckpointInterval: interval})
		if r.Trap != nil {
			t.Fatalf("%s: golden trapped: %v", name, r.Trap)
		}
		c := r.Checkpoints
		if c == nil || c.Snapshots() == 0 {
			t.Fatalf("%s: no checkpoints recorded", name)
		}
		if c.Interval() != interval {
			t.Fatalf("%s: interval %d, want %d", name, c.Interval(), interval)
		}
		prev := int64(0)
		for _, s := range c.snaps {
			if s.dyn < prev+interval && prev != 0 {
				t.Fatalf("%s: snapshots closer than the interval: %d after %d", name, s.dyn, prev)
			}
			if s.dyn >= r.DynCount {
				t.Fatalf("%s: snapshot at %d beyond run end %d", name, s.dyn, r.DynCount)
			}
			prev = s.dyn
		}
		for target := int64(1); target <= r.DynCount; target += 7 {
			s := c.ForPlan(&fault.Plan{Mode: fault.ModeDynamic, TargetDyn: target, Bit: 0})
			if s == nil {
				if target > c.snaps[0].dyn {
					t.Fatalf("%s: no snapshot for target %d despite first at %d", name, target, c.snaps[0].dyn)
				}
				continue
			}
			if s.Dyn() >= target {
				t.Fatalf("%s: snapshot at %d not strictly before target %d", name, s.Dyn(), target)
			}
		}
	}
}

// TestRunFromMatchesRun exhaustively checks, for every dynamic injection
// point of each white-box program, that a checkpoint-resumed faulty run is
// bit-identical to a from-scratch one.
func TestRunFromMatchesRun(t *testing.T) {
	for name, tc := range ckptProgs(t) {
		golden := Run(tc.p, tc.args, Options{Profile: true, CheckpointInterval: 13})
		if golden.Trap != nil || golden.DynCount == 0 {
			t.Fatalf("%s: bad golden: %+v", name, golden)
		}
		budget := golden.DynCount*3 + 1000
		for target := int64(1); target <= golden.DynCount; target++ {
			plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: target, Bit: 0}
			scratch := Run(tc.p, tc.args, Options{Plan: &plan, MaxDyn: budget})
			resumed := RunWithCheckpoints(tc.p, tc.args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget})
			sameResult(t, name, scratch, resumed)
			if !scratch.Injected {
				t.Fatalf("%s: plan at dyn %d did not activate", name, target)
			}
		}
		st := golden.Checkpoints.Stats()
		if st.Restored == 0 || st.Scratch == 0 {
			t.Fatalf("%s: expected both resumed and scratch trials, got %+v", name, st)
		}
		if st.SkippedDyn == 0 {
			t.Fatalf("%s: no prefix instructions skipped", name)
		}
	}
}

// TestRunFromStaticMode checks occurrence-targeted plans across snapshots:
// the occurrence count of the target instruction is reconstructed from the
// snapshot's profile vector.
func TestRunFromStaticMode(t *testing.T) {
	for name, tc := range ckptProgs(t) {
		golden := Run(tc.p, tc.args, Options{Profile: true, CheckpointInterval: 13})
		budget := golden.DynCount*3 + 1000
		for id, execs := range golden.InstrCounts {
			if execs == 0 {
				continue
			}
			for _, occ := range []int64{1, (execs + 1) / 2, execs} {
				plan := fault.Plan{Mode: fault.ModeStatic, StaticID: id, Occurrence: occ, Bit: 0}
				scratch := Run(tc.p, tc.args, Options{Plan: &plan, MaxDyn: budget})
				resumed := RunWithCheckpoints(tc.p, tc.args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget})
				sameResult(t, name, scratch, resumed)
				if !scratch.Injected {
					t.Fatalf("%s: static plan id=%d occ=%d did not activate", name, id, occ)
				}
			}
		}
	}
}

// TestRunFromTaint pins taint state across Restore: propagation statistics
// of resumed runs must match scratch runs bit for bit (the golden prefix is
// taint-free, so a fresh shadow is the correct restored state).
func TestRunFromTaint(t *testing.T) {
	for name, tc := range ckptProgs(t) {
		golden := Run(tc.p, tc.args, Options{Profile: true, CheckpointInterval: 11})
		budget := golden.DynCount*3 + 1000
		for target := int64(1); target <= golden.DynCount; target += 3 {
			plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: target, Bit: 0}
			scratch := Run(tc.p, tc.args, Options{Plan: &plan, MaxDyn: budget, TrackPropagation: true})
			resumed := RunWithCheckpoints(tc.p, tc.args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget, TrackPropagation: true})
			sameResult(t, name, scratch, resumed)
		}
	}
}

// TestSnapshotImmutable verifies trials cannot corrupt snapshots: resuming
// twice from the same checkpointed golden gives identical results even
// though the first trial scribbled over the restored memory image.
func TestSnapshotImmutable(t *testing.T) {
	p := buildMemory(t)
	args := []uint64{30}
	golden := Run(p, args, Options{Profile: true, CheckpointInterval: 5})
	budget := golden.DynCount*3 + 1000
	plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: golden.DynCount - 1, Bit: 0}
	first := RunWithCheckpoints(p, args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget})
	second := RunWithCheckpoints(p, args, golden.Checkpoints, Options{Plan: &plan, MaxDyn: budget})
	sameResult(t, "memory", first, second)
}

// TestRunFromPendingBit checks that deferred bit draws stay in sync: the
// prefix consumes no randomness, so equal-seeded RNGs land on the same bit.
func TestRunFromPendingBit(t *testing.T) {
	p := buildSumLoop(t)
	args := []uint64{150}
	golden := Run(p, args, Options{Profile: true, CheckpointInterval: 20})
	budget := golden.DynCount*3 + 1000
	planRNG := xrand.New(99)
	for i := 0; i < 50; i++ {
		plan := fault.SampleDynamic(planRNG, golden.DynCount)
		rA, rB := xrand.New(7), xrand.New(7)
		scratch := Run(p, args, Options{Plan: &plan, FaultRNG: rA, MaxDyn: budget})
		resumed := RunWithCheckpoints(p, args, golden.Checkpoints, Options{Plan: &plan, FaultRNG: rB, MaxDyn: budget})
		sameResult(t, "sumloop", scratch, resumed)
	}
}

func TestCheckpointWithPlanPanics(t *testing.T) {
	p := buildSumLoop(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for CheckpointInterval + Plan")
		}
	}()
	plan := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: 1, Bit: 0}
	Run(p, []uint64{10}, Options{CheckpointInterval: 8, Plan: &plan})
}

func TestAutoCheckpointInterval(t *testing.T) {
	if got := AutoCheckpointInterval(10); got != 64 {
		t.Fatalf("tiny run: got %d, want the 64 floor", got)
	}
	if got := AutoCheckpointInterval(640_000); got != 10_000 {
		t.Fatalf("large run: got %d, want dyn/64", got)
	}
}

// TestSnapshotPagesSharedByContent pins the page-sharing rule: a snapshot
// page shares its predecessor's copy exactly when the contents are equal,
// and every page holds the memory a resumed trial must see — checked by
// resuming a fault-free run (a plan that never fires) from each snapshot.
func TestSnapshotPagesSharedByContent(t *testing.T) {
	p, _ := buildInjectorMix(t)
	args := []uint64{600} // a two-page array, mostly untouched between snapshots
	golden := Run(p, args, Options{Profile: true, CheckpointInterval: 97})
	snaps := golden.Checkpoints.snaps
	shared := 0
	for k := 1; k < len(snaps); k++ {
		prev, cur := snaps[k-1], snaps[k]
		for i, pg := range cur.pages {
			if i >= len(prev.pages) {
				continue
			}
			same := &pg[0] == &prev.pages[i][0]
			if same != slices.Equal(pg, prev.pages[i]) {
				t.Fatalf("snapshot %d page %d: shared=%v but contents equal=%v", k, i, same, !same)
			}
			if same {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no page was shared between consecutive snapshots")
	}
	never := fault.Plan{Mode: fault.ModeDynamic, TargetDyn: golden.DynCount + 1}
	for _, s := range snaps {
		r := runFrom(p, s, nil, Options{Plan: &never, MaxDyn: golden.DynCount + 1})
		sameResult(t, fmt.Sprintf("resume@%d", s.dyn), &Result{Ret: golden.Ret, DynCount: golden.DynCount, Output: golden.Output}, r)
	}
}

// TestTaintRunRejectsProfileAndCheckpoint: the taint-tracking loop
// neither profiles nor records snapshots, so asking it to must panic
// rather than silently return no counts or checkpoints.
func TestTaintRunRejectsProfileAndCheckpoint(t *testing.T) {
	p := buildSumLoop(t)
	for name, opts := range map[string]Options{
		"Profile":            {TrackPropagation: true, Profile: true},
		"CheckpointInterval": {TrackPropagation: true, CheckpointInterval: 8},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("a TrackPropagation run accepted %s", name)
				}
			}()
			Run(p, []uint64{10}, opts)
		})
	}
}
