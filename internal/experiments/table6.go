package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// Table6Row compares per-input evaluation cost for one benchmark.
type Table6Row struct {
	Bench        string
	PeppaDyn     int64
	BaselineDyn  int64
	PeppaTime    time.Duration
	BaselineTime time.Duration
	Ratio        float64
	// PaperPeppaSec / PaperBaselineSec are the published seconds.
	PaperPeppaSec    float64
	PaperBaselineSec float64
}

// Table6Result reproduces Table 6: the per-input evaluation cost of
// PEPPA-X (one profiled execution) vs the baseline (a full 1000-trial FI
// campaign) — four orders of magnitude apart in the paper.
type Table6Result struct {
	Rows     []Table6Row
	AvgRatio float64
}

var paperTable6Peppa = map[string]float64{
	"pathfinder": 1.06, "needle": 1.02, "particlefilter": 0.45,
	"comd": 3.99, "hpccg": 2.09, "xsbench": 18.63, "fft": 0.36,
}

var paperTable6Baseline = map[string]float64{
	"pathfinder": 9326.91, "needle": 7497.40, "particlefilter": 865.27,
	"comd": 110218.25, "hpccg": 45325.39, "xsbench": 222248.48, "fft": 80.19,
}

// Table6 measures both costs on each benchmark's reference input.
func Table6(s *Suite) (*Table6Result, error) {
	res := &Table6Result{}
	var sum float64
	for _, name := range s.BenchNames() {
		b := s.Bench(name)
		peppaDyn, baseDyn, peppaTime, baseTime, err := core.EvaluateInputCost(
			b, b.RefInput(), s.Cfg.OverallTrials, s.rng("table6", name))
		if err != nil {
			return nil, err
		}
		ratio := float64(baseDyn) / float64(peppaDyn)
		res.Rows = append(res.Rows, Table6Row{
			Bench: name, PeppaDyn: peppaDyn, BaselineDyn: baseDyn,
			PeppaTime: peppaTime, BaselineTime: baseTime, Ratio: ratio,
			PaperPeppaSec:    paperTable6Peppa[name],
			PaperBaselineSec: paperTable6Baseline[name],
		})
		sum += ratio
	}
	res.AvgRatio = sum / float64(len(res.Rows))
	return res, nil
}

// Render produces the table text.
func (r *Table6Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Bench,
			fmt.Sprintf("%.2fms", float64(row.PeppaTime.Microseconds())/1000),
			fmt.Sprintf("%.0fms", float64(row.BaselineTime.Microseconds())/1000),
			fmt.Sprintf("%.0fx", row.Ratio),
			paperRatio("%.0fx", row.PaperBaselineSec, row.PaperPeppaSec),
		})
	}
	var sb strings.Builder
	sb.WriteString("Table 6: Per-input evaluation cost — PEPPA-X (one profiled run) vs baseline (full FI campaign)\n")
	sb.WriteString("Paper shape: PEPPA-X evaluates an input ~3-4 orders of magnitude faster (paper mean >1e4x in seconds).\n")
	sb.WriteString("(ratios below are in dynamic instructions, the machine-independent cost)\n\n")
	sb.WriteString(renderTable([]string{"Benchmark", "PEPPA-X", "Baseline", "Ratio (ours)", "Ratio (paper)"}, rows))
	fmt.Fprintf(&sb, "\nAverage ratio: %.0fx\n", r.AvgRatio)
	return sb.String()
}
