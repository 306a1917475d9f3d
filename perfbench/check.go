package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/prog"
	"repro/internal/stats"
)

// referenceJSON is the recorded outcome of the fixed-seed search and
// baseline sweeps; regenerate it with --record-reference after a change
// that is meant to alter which inputs the searches find.
//
//go:embed reference.json
var referenceJSON []byte

// reference holds, per workload, the seed and size the SDC bounds were
// recorded at and each kernel's bound.
type reference struct {
	Search   refSet `json:"search"`
	Baseline refSet `json:"baseline"`
}

// refSet is one workload's recorded bounds, each the SDC probability of a
// Trials-trial campaign.
type refSet struct {
	Seed   uint64             `json:"seed"`
	Trials int                `json:"trials"`
	SDC    map[string]float64 `json:"sdc"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// checkBound fails when got lies outside the 95% Wilson interval of the
// recorded bound for kernel.
func checkBound(rep *report, set refSet, what, kernel string, got float64) {
	want, ok := set.SDC[kernel]
	if !ok {
		rep.fail("%s %s: no reference bound recorded", what, kernel)
		return
	}
	k := int(math.Round(want * float64(set.Trials)))
	lo, hi := stats.WilsonInterval95(k, set.Trials)
	if got < lo || got > hi {
		rep.fail("%s %s: SDC bound %.4f outside the reference's 95%% Wilson interval [%.4f, %.4f] (reference %.4f)",
			what, kernel, got, lo, hi, want)
	}
}

// checkTally fails when a campaign tally does not sum to its trial count or
// ran a different number of trials than asked (want <= 0 skips that check).
func checkTally(rep *report, what string, c campaign.Counts, want int) {
	if sum := c.SDC + c.Crash + c.Hang + c.Benign + c.Detected; sum != c.Trials {
		rep.fail("%s: outcomes sum to %d, not to its %d trials", what, sum, c.Trials)
	}
	if want > 0 && c.Trials != want {
		rep.fail("%s: ran %d trials, want %d", what, c.Trials, want)
	}
	if c.Trials < 1 {
		rep.fail("%s: ran no trials", what)
	}
}

// checkGolden fails when a reported input does not re-run as a valid golden.
func checkGolden(rep *report, what string, b *prog.Benchmark, input []float64) {
	if len(input) != len(b.Args) {
		rep.fail("%s: reported input has %d values, %s takes %d", what, len(input), b.Name, len(b.Args))
		return
	}
	if _, err := campaign.NewGolden(b.Prog, b.Encode(input), b.MaxDyn); err != nil {
		rep.fail("%s: reported input does not re-run as a valid golden: %v", what, err)
	}
}
