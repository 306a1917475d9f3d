package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/prog"
	"repro/internal/xrand"
)

// enginePinsFile holds the pinned outputs TestEnginePins reproduces. The
// equivalence suites elsewhere compare engines and substrates against each
// other within one build; these pins are absolute, so a semantic drift that
// moves every execution path alike still fails here.
const enginePinsFile = "testdata/engine_pins.txt"

// hashOutput folds an output sequence into one FNV-1a digest.
func hashOutput(out []interp.OutVal) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for _, o := range out {
		buf[0] = byte(o.Ty)
		binary.LittleEndian.PutUint64(buf[1:], o.Bits)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// hashCounts folds a per-instruction count vector into one FNV-1a digest.
func hashCounts(counts []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range counts {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// floatBits renders floats exactly, as their IEEE-754 bit patterns.
func floatBits(v []float64) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(f))
	}
	return strings.Join(parts, ",")
}

// pinIDs picks n static instructions spread evenly over the executed ones.
func pinIDs(g *campaign.Golden, n int) []int {
	var executed []int
	for id, c := range g.InstrCounts {
		if c > 0 {
			executed = append(executed, id)
		}
	}
	ids := make([]int, 0, n)
	for i := 0; i < n && i < len(executed); i++ {
		ids = append(ids, executed[i*len(executed)/n])
	}
	return ids
}

// renderEnginePins computes every pinned quantity of one kernel on its
// reference input: the golden run, the serial shared-stream campaign, a
// static-plan per-instruction campaign, checkpointed and scratch parallel
// campaigns, and a short search.
func renderEnginePins(t *testing.T, name string) string {
	t.Helper()
	b := prog.Build(name)
	in := b.Encode(b.RefInput())
	var sb strings.Builder
	line := func(format string, args ...any) {
		fmt.Fprintf(&sb, "%s ", name)
		fmt.Fprintf(&sb, format, args...)
		sb.WriteByte('\n')
	}

	g, err := campaign.NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, campaign.CheckpointAuto)
	if err != nil {
		t.Fatalf("%s: golden: %v", name, err)
	}
	line("golden dyn=%d output=%016x counts=%016x", g.DynCount, hashOutput(g.Output), hashCounts(g.InstrCounts))

	line("overall %+v", campaign.Overall(b.Prog, g, 200, xrand.New(1)))

	for _, r := range campaign.PerInstruction(b.Prog, g, pinIDs(g, 8), 10, xrand.New(1)) {
		line("perinstr id=%d %+v", r.ID, r.Counts)
	}
	line("checkpoints %s", checkpointPins(g))

	// The label names a batch size the campaign no longer takes; it is kept
	// so the pin file stays byte-stable.
	line("parallel-batch64 %+v", campaign.OverallParallel(b.Prog, g, 200,
		campaign.ParallelOptions{Workers: 1, Seed: 1}))

	plain, err := campaign.NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, campaign.CheckpointDisabled)
	if err != nil {
		t.Fatalf("%s: plain golden: %v", name, err)
	}
	line("parallel-scratch %+v", campaign.OverallParallel(b.Prog, plain, 200,
		campaign.ParallelOptions{Workers: 1, Seed: 1}))

	opts := DefaultOptions()
	opts.Generations = 3
	opts.PopSize = 4
	opts.TrialsPerRep = 4
	opts.FinalTrials = 100
	res, err := Search(b, opts, xrand.New(2026))
	if err != nil {
		t.Fatalf("%s: search: %v", name, err)
	}
	line("search best=%s final=%+v evals=%d searchdyn=%d history=%016x",
		floatBits(res.BestInput), res.Final, res.Evaluations, res.Cost.SearchDyn, hashHistory(res))
	return sb.String()
}

// checkpointPins renders a checkpointed golden's snapshot schedule (count,
// interval and an FNV-1a digest of the snapshot dyn list) and its usage
// counters. The dyn list is walked back from the last snapshot through
// ForPlan, which leaves the counters untouched.
func checkpointPins(g *campaign.Golden) string {
	c := g.Checkpoints
	var dyns []int64
	for s := c.ForPlan(&fault.Plan{Mode: fault.ModeDynamic, TargetDyn: math.MaxInt64}); s != nil; s = c.ForPlan(&fault.Plan{Mode: fault.ModeDynamic, TargetDyn: s.Dyn()}) {
		dyns = append(dyns, s.Dyn())
	}
	slices.Reverse(dyns)
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range dyns {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	st := g.CheckpointStats()
	return fmt.Sprintf("snapshots=%d interval=%d dyns=%016x restored=%d scratch=%d skipped_dyn=%d",
		st.Snapshots, st.Interval, h.Sum64(), st.Restored, st.Scratch, st.SkippedDyn)
}

// hashHistory folds a search's per-generation FitnessHistory bits and
// charged SearchDynHistory into one FNV-1a digest.
func hashHistory(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range res.FitnessHistory {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, d := range res.SearchDynHistory {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestEnginePins reproduces, byte for byte, outputs recorded for all ten
// kernels: golden DynCount and output/count digests, Overall (200 trials,
// seed 1), PerInstruction (8 ids × 10 static-plan trials), the golden's
// snapshot schedule and checkpoint usage after those two campaigns,
// OverallParallel on a checkpointed and an uncheckpointed golden, and a
// three-generation Search at seed 2026: its best input, closing campaign,
// evaluation count, charged search cost and a digest of its fitness and
// cost histories.
func TestEnginePins(t *testing.T) {
	want, err := os.ReadFile(enginePinsFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	var got []string
	for _, name := range prog.Names() {
		got = append(got, strings.Split(strings.TrimSpace(renderEnginePins(t, name)), "\n")...)
	}
	if len(got) != len(wantLines) {
		t.Fatalf("pinned %d lines, computed %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("pin drift:\n got  %s\n want %s", got[i], wantLines[i])
		}
	}
}
