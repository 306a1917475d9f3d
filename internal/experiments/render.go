package experiments

import (
	"fmt"
	"strings"
)

// renderTable lays out a fixed-width text table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// pct formats a probability as a percentage.
func pct(p float64) string { return fmt.Sprintf("%.2f%%", p*100) }

// paperRatio formats the ratio of two published figures, or "–" when the
// paper has no figure for the benchmark (a zero would print NaN).
func paperRatio(format string, num, den float64) string {
	if num == 0 || den == 0 {
		return "–"
	}
	return fmt.Sprintf(format, num/den)
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// rangeBar draws a [min,max] span with a marker at ref, over [0, scaleMax],
// like Figure 1's blue bars with red reference marks: '=' spans the range,
// '#' marks the reference value, '.' fills the rest.
func rangeBar(lo, hi, ref, scaleMax float64, width int) string {
	if scaleMax <= 0 || width <= 0 {
		return ""
	}
	pos := func(v float64) int {
		p := int(v / scaleMax * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	bar := make([]byte, width)
	for i := range bar {
		bar[i] = '.'
	}
	for i := pos(lo); i <= pos(hi); i++ {
		bar[i] = '='
	}
	bar[pos(ref)] = '#'
	return string(bar)
}

// inputString renders an input vector compactly.
func inputString(in []float64) string {
	parts := make([]string, len(in))
	for i, v := range in {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
