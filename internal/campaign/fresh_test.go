package campaign

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/prog"
)

// The parallel campaigns run every trial on a worker's reused injector. The
// tests below pin them, at every worker count, to classifying the same
// per-trial plans one at a time on fresh trial machines (Classify). Their
// names are those of the lockstep-batch gates they replace, kept so the
// test list stays stable: campaigns that used to batch take this path.

// TestBatchedOverallEquivalence: for every prog benchmark, whole-program
// tallies on a checkpointed golden must match the fresh-machine per-trial
// reference at every worker count.
func TestBatchedOverallEquivalence(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 80
	}
	for _, name := range prog.Names() {
		if testing.Short() && heavyBenches[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			in := b.Encode(b.RefInput())
			g, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 11
			ref := freshOverall(b, g, trials, seed)
			for _, workers := range []int{1, 4} {
				got := OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: workers, Seed: seed})
				if got != ref {
					t.Fatalf("workers=%d: %+v vs fresh per-trial %+v", workers, got, ref)
				}
			}
		})
	}
}

// freshOverall classifies OverallParallel's per-trial plans serially, each
// on a fresh trial machine.
func freshOverall(b *prog.Benchmark, g *Golden, trials int, seed uint64) Counts {
	var c Counts
	for i := 0; i < trials; i++ {
		rng := trialRNG(seed, i)
		o, _, dyn := Classify(b.Prog, g, samplePlan(nil, rng, g.DynCount), rng, nil)
		c.Add(o)
		c.DynInstrs += dyn
	}
	return c
}

// TestBatchedPerInstructionEquivalence covers the static-mode campaign:
// per-instruction tallies must match the fresh-machine reference at every
// worker count.
func TestBatchedPerInstructionEquivalence(t *testing.T) {
	trialsPerInstr := 5
	for _, name := range prog.Names() {
		if testing.Short() && heavyBenches[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			b := prog.Build(name)
			in := b.Encode(b.RefInput())
			g, err := NewGoldenCheckpointed(b.Prog, in, b.MaxDyn, CheckpointAuto)
			if err != nil {
				t.Fatal(err)
			}
			ids := AllInstructionIDs(b.Prog)
			const seed = 42
			ref := make([]InstrResult, len(ids))
			for k, id := range ids {
				ref[k].ID = id
				n := g.InstrCounts[id]
				if n <= 0 {
					continue
				}
				rng := trialRNG(seed, id)
				for i := 0; i < trialsPerInstr; i++ {
					plan := fault.SampleStatic(rng, id, b.Prog.InstrType(id), n)
					o, _, dyn := Classify(b.Prog, g, plan, rng, nil)
					ref[k].Counts.Add(o)
					ref[k].Counts.DynInstrs += dyn
				}
			}
			for _, workers := range []int{1, 4} {
				got := PerInstructionParallel(b.Prog, g, ids, trialsPerInstr, ParallelOptions{Workers: workers, Seed: seed})
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d: per-instruction tallies diverged from fresh per-trial", workers)
				}
			}
		})
	}
}

// TestBatchedScratchGolden pins the snapshot-less corner: on a golden
// without checkpoints every trial starts from the entry, and the tallies
// must still match the fresh-machine reference.
func TestBatchedScratchGolden(t *testing.T) {
	b := prog.Build("pathfinder")
	in := b.Encode(b.RefInput())
	g, err := NewGolden(b.Prog, in, b.MaxDyn)
	if err != nil {
		t.Fatal(err)
	}
	const trials, seed = 60, 7
	ref := freshOverall(b, g, trials, seed)
	got := OverallParallel(b.Prog, g, trials, ParallelOptions{Workers: 4, Seed: seed})
	if got != ref {
		t.Fatalf("scratch-golden %+v vs fresh per-trial %+v", got, ref)
	}
}
