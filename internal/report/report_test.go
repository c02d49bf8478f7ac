package report

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/paperdata"
	"repro/internal/savat"
	"repro/internal/specan"
	"repro/internal/stats"
)

func fig9() *savat.Matrix {
	return paperdata.Experiments()[0].Matrix()
}

func TestMatrixTable(t *testing.T) {
	out := MatrixTable(fig9())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 {
		t.Fatalf("table has %d lines, want 12", len(lines))
	}
	if !strings.Contains(lines[0], "LDM") || !strings.Contains(lines[0], "DIV") {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "11.5") {
		t.Errorf("LDM row missing 11.5: %q", lines[1])
	}
	if !strings.HasPrefix(lines[11], "DIV") {
		t.Errorf("last row: %q", lines[11])
	}
}

func TestMatrixTableWithStats(t *testing.T) {
	s := &savat.MatrixStats{
		Machine:  "Core2Duo",
		Distance: 0.1,
		Mean:     fig9(),
	}
	s.Cells = make([][]stats.Summary, 11)
	for i := range s.Cells {
		s.Cells[i] = make([]stats.Summary, 11)
		for j := range s.Cells[i] {
			s.Cells[i][j] = stats.Summary{N: 10, Mean: s.Mean.Vals[i][j], StdDev: s.Mean.Vals[i][j] * 0.05}
		}
	}
	out := MatrixTableWithStats(s)
	if !strings.Contains(out, "Core2Duo") || !strings.Contains(out, "10 campaigns") {
		t.Errorf("header missing metadata:\n%s", out)
	}
	if !strings.Contains(out, "±") {
		t.Error("cells missing ± sigma")
	}
}

func TestHeatmap(t *testing.T) {
	out := Heatmap(fig9())
	if !strings.Contains(out, "█") {
		t.Error("heatmap missing dark shade for the largest values")
	}
	if !strings.Contains(out, "scale:") {
		t.Error("heatmap missing scale legend")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 13 { // header + 11 rows + legend
		t.Errorf("heatmap has %d lines", len(lines))
	}
	// The darkest cells should be in the STL2 row (largest values).
	stl2Line := lines[4]
	if !strings.Contains(stl2Line, "████") {
		t.Errorf("STL2 row not dark: %q", stl2Line)
	}
	// Diagonal arithmetic cells should be light (spaces or light shade).
	addLine := lines[8]
	if strings.Count(addLine, "█") > 8 {
		t.Errorf("ADD row too dark: %q", addLine)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("title", []Bar{
		{"ADD/ADD", 0.7e-21},
		{"STL2/DIV", 10.1e-21},
	}, 40, "zJ")
	if !strings.Contains(out, "title") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("chart lines = %d", len(lines))
	}
	small := strings.Count(lines[1], "█")
	big := strings.Count(lines[2], "█")
	if big != 40 {
		t.Errorf("largest bar = %d chars, want full width", big)
	}
	if small >= big/4 {
		t.Errorf("bar proportions wrong: %d vs %d", small, big)
	}
	if !strings.Contains(lines[2], "10.10 zJ") {
		t.Errorf("value label: %q", lines[2])
	}
	// Zero width defaults.
	if out := BarChart("", []Bar{{"x", 1}}, 0, ""); !strings.Contains(out, "x") {
		t.Error("default width chart broken")
	}
}

func TestSelectedPairsChart(t *testing.T) {
	out, err := SelectedPairsChart("Figure 11", fig9(), paperdata.SelectedPairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ADD/ADD", "STL2/DIV", "LDL2/LDM"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %s:\n%s", want, out)
		}
	}
	bad := savat.NewMatrix([]savat.Event{savat.ADD})
	if _, err := SelectedPairsChart("", bad, paperdata.SelectedPairs); err == nil {
		t.Error("missing events should fail")
	}
}

func TestSpectrumPlot(t *testing.T) {
	// Synthesize a tone at 80 kHz over a floor.
	fs := float64(1 << 18)
	n := 1 << 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1e-6, 2*math.Pi*80e3*float64(i)/fs)
	}
	an := specan.MustNew(specan.Config{RBW: 16, Window: dsp.Hann, FloorPSD: 6e-18})
	tr, err := an.AnalyzeIncoherent([][]complex128{x}, fs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SpectrumPlot(tr, 80e3, 2e3, 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") {
		t.Error("plot missing signal")
	}
	if !strings.Contains(out, "kHz") || !strings.Contains(out, "RBW") {
		t.Error("plot missing axis labels")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 14 { // 12 rows + axis + label
		t.Errorf("plot rows = %d", len(lines))
	}
	// The peak column is tall: some column has # in the top row.
	if !strings.Contains(lines[0], "#") {
		t.Error("tone should reach the top row")
	}
	if _, err := SpectrumPlot(tr, 1e9, 2e3, 0, 0); err == nil {
		t.Error("out-of-range span should fail")
	}
}

func TestCSV(t *testing.T) {
	out := CSV(fig9())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "A\\B,LDM,") {
		t.Errorf("CSV header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "11.5000") {
		t.Errorf("CSV LDM row: %q", lines[1])
	}
	for i, l := range lines {
		if got := strings.Count(l, ","); got != 11 {
			t.Errorf("line %d has %d commas", i, got)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := fig9()
	back, err := ParseCSV(CSV(m))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Vals {
		for j := range m.Vals[i] {
			if diff := back.Vals[i][j] - m.Vals[i][j]; diff > 1e-25 || diff < -1e-25 {
				t.Fatalf("cell (%d,%d): %v != %v", i, j, back.Vals[i][j], m.Vals[i][j])
			}
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"A\\B,LDM",
		"A\\B,FROB\nFROB,1.0",
		"A\\B,LDM\nSTM,1.0",         // row order mismatch
		"A\\B,LDM\nLDM,1.0,2.0",     // wrong field count
		"A\\B,LDM\nLDM,abc",         // bad number
		"A\\B,LDM,STM\nLDM,1.0,2.0", // missing row
	}
	for _, c := range cases {
		if _, err := ParseCSV(c); err == nil {
			t.Errorf("ParseCSV(%q) should fail", c)
		}
	}
}
