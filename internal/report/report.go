// Package report renders measurement results in the forms the paper uses:
// numeric matrices (Figure 9), grayscale heat-map visualizations
// (Figures 10, 12, 14, 17, 18), bar charts of selected pairings
// (Figures 11, 13, 15, 16), and spectrum plots (Figures 7, 8) — all as
// plain text so every figure regenerates in a terminal — plus CSV export.
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/savat"
	"repro/internal/specan"
)

// MatrixTable renders the matrix in zeptojoules with row/column headers,
// in the layout of the paper's Figure 9.
func MatrixTable(m *savat.Matrix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "")
	for _, e := range m.Events {
		fmt.Fprintf(&b, "%7s", e)
	}
	b.WriteByte('\n')
	for i, row := range m.Vals {
		fmt.Fprintf(&b, "%-6s", m.Events[i])
		for _, v := range row {
			fmt.Fprintf(&b, "%7.1f", v*1e21)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MatrixTableWithStats renders mean ± σ cells from a campaign.
func MatrixTableWithStats(s *savat.MatrixStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at %.2f m — SAVAT in zJ, mean ± σ over %d campaigns\n",
		s.Machine, s.Distance, campaignN(s))
	fmt.Fprintf(&b, "%-6s", "")
	for _, e := range s.Mean.Events {
		fmt.Fprintf(&b, "%13s", e)
	}
	b.WriteByte('\n')
	for i := range s.Cells {
		fmt.Fprintf(&b, "%-6s", s.Mean.Events[i])
		for _, c := range s.Cells[i] {
			fmt.Fprintf(&b, "%8.1f±%-4.2f", c.Mean*1e21, c.StdDev*1e21)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func campaignN(s *savat.MatrixStats) int {
	if len(s.Cells) == 0 || len(s.Cells[0]) == 0 {
		return 0
	}
	return s.Cells[0][0].N
}

// shades maps normalized intensity to glyphs, white (small) to black
// (large) like the paper's gray-scale figures.
var shades = []rune{' ', '░', '▒', '▓', '█'}

// Heatmap renders the matrix as a gray-scale grid: white = smallest
// value, black = largest, using a logarithmic scale since SAVAT spans
// more than an order of magnitude.
func Heatmap(m *savat.Matrix) string {
	min, max := math.Inf(1), math.Inf(-1)
	for _, row := range m.Vals {
		for _, v := range row {
			if v > 0 {
				min = math.Min(min, v)
				max = math.Max(max, v)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "")
	for _, e := range m.Events {
		fmt.Fprintf(&b, "%5s", e)
	}
	b.WriteByte('\n')
	for i, row := range m.Vals {
		fmt.Fprintf(&b, "%-6s", m.Events[i])
		for _, v := range row {
			idx := 0
			if v > 0 && max > min {
				f := (math.Log(v) - math.Log(min)) / (math.Log(max) - math.Log(min))
				idx = int(math.Round(f * float64(len(shades)-1)))
				if idx < 0 {
					idx = 0
				}
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			s := strings.Repeat(string(shades[idx]), 4)
			b.WriteString(" " + s)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "scale: '%c' = %.2g zJ … '%c' = %.2g zJ (log)\n",
		shades[0], min*1e21, shades[len(shades)-1], max*1e21)
	return b.String()
}

// Bar is one bar of a chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders horizontal bars scaled to the maximum value, with the
// numeric value (in zJ when unit == "zJ") appended.
func BarChart(title string, bars []Bar, width int, unit string) string {
	if width <= 0 {
		width = 50
	}
	max := 0.0
	for _, b := range bars {
		max = math.Max(max, b.Value)
	}
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	for _, b := range bars {
		n := 0
		if max > 0 {
			n = int(math.Round(b.Value / max * float64(width)))
		}
		v := b.Value
		if unit == "zJ" {
			v *= 1e21
		}
		fmt.Fprintf(&sb, "%-12s |%-*s| %.2f %s\n", b.Label, width, strings.Repeat("█", n), v, unit)
	}
	return sb.String()
}

// SelectedPairsChart renders the paper's bar-chart pair selection from a
// measured matrix.
func SelectedPairsChart(title string, m *savat.Matrix, pairs [][2]savat.Event) (string, error) {
	bars := make([]Bar, 0, len(pairs))
	for _, p := range pairs {
		v, err := m.At(p[0], p[1])
		if err != nil {
			return "", err
		}
		bars = append(bars, Bar{Label: fmt.Sprintf("%v/%v", p[0], p[1]), Value: v})
	}
	return BarChart(title, bars, 50, "zJ"), nil
}

// SpectrumPlot renders the trace's PSD around center ± span as an ASCII
// plot with a logarithmic vertical axis, in the style of Figures 7/8.
// The span must lie within the trace's analyzed band.
func SpectrumPlot(tr *specan.Trace, center, span float64, cols, rows int) (string, error) {
	if cols <= 0 {
		cols = 78
	}
	if rows <= 0 {
		rows = 16
	}
	lo, hi := center-span, center+span
	var vals []float64
	if err := tr.Band().Walk(lo, hi, func(_ int, v float64) { vals = append(vals, v) }); err != nil {
		return "", err
	}
	count := len(vals) - 1
	if count <= 0 {
		return "", fmt.Errorf("report: empty spectrum span")
	}
	// Max-decimate the bins into the columns.
	col := make([]float64, cols)
	for i := range col {
		col[i] = tr.FloorPSD
	}
	for i, v := range vals {
		c := i * (cols - 1) / count
		col[c] = math.Max(col[c], v)
	}
	minV := tr.FloorPSD
	if minV <= 0 {
		minV = 1e-20
	}
	maxV := minV
	for _, v := range col {
		maxV = math.Max(maxV, v)
	}
	logMin, logMax := math.Log10(minV), math.Log10(maxV*1.1)
	var b strings.Builder
	for r := rows - 1; r >= 0; r-- {
		thresh := math.Pow(10, logMin+(logMax-logMin)*float64(r)/float64(rows))
		if r == rows-1 || r == 0 || r == rows/2 {
			fmt.Fprintf(&b, "%8.1e |", thresh)
		} else {
			b.WriteString("         |")
		}
		for _, v := range col {
			if v >= thresh {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("         +" + strings.Repeat("-", cols) + "\n")
	fmt.Fprintf(&b, "          %-12.1f kHz %*s %.1f kHz (RBW %.1f Hz, W/Hz)\n",
		lo/1e3, cols-36, "", hi/1e3, tr.ActualRBW)
	return b.String(), nil
}

// CSV renders the matrix as comma-separated zJ values with headers.
func CSV(m *savat.Matrix) string {
	var b strings.Builder
	b.WriteString("A\\B")
	for _, e := range m.Events {
		b.WriteString("," + e.String())
	}
	b.WriteByte('\n')
	for i, row := range m.Vals {
		b.WriteString(m.Events[i].String())
		for _, v := range row {
			fmt.Fprintf(&b, ",%.4f", v*1e21)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseCSV parses a matrix previously written by CSV (zJ values) back
// into a Matrix in joules. The header row must name known events.
func ParseCSV(text string) (*savat.Matrix, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("report: CSV needs a header and rows")
	}
	header := strings.Split(lines[0], ",")
	if len(header) < 2 {
		return nil, fmt.Errorf("report: malformed CSV header %q", lines[0])
	}
	events := make([]savat.Event, 0, len(header)-1)
	for _, name := range header[1:] {
		e, err := savat.EventByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	if len(lines)-1 != len(events) {
		return nil, fmt.Errorf("report: %d rows for %d events", len(lines)-1, len(events))
	}
	m := savat.NewMatrix(events)
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(events)+1 {
			return nil, fmt.Errorf("report: row %d has %d fields, want %d", i, len(fields), len(events)+1)
		}
		rowEvent, err := savat.EventByName(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, err
		}
		if rowEvent != events[i] {
			return nil, fmt.Errorf("report: row %d is %v, want %v (rows must match header order)", i, rowEvent, events[i])
		}
		for j, f := range fields[1:] {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("report: row %d col %d: %w", i, j, err)
			}
			m.Vals[i][j] = v * 1e-21
		}
	}
	return m, nil
}
