package conform

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/savat"
	"repro/internal/specan"
)

// GoldenRelTol is the default relative tolerance for golden-vector
// comparison. The pipeline is deterministic for a fixed seed, so the
// tolerance only has to absorb cross-platform floating-point variance
// in the math library — it sits four orders of magnitude below the 1 %
// regression the golden suite exists to catch.
const GoldenRelTol = 1e-6

// GoldenMatrix is a committed reference matrix: the measurement recipe
// that produced it (for regeneration and for binding the file to one
// campaign) and the resulting SAVAT values in zeptojoules, the paper's
// unit.
type GoldenMatrix struct {
	Description string      `json:"description,omitempty"`
	Machine     string      `json:"machine"`
	Events      []string    `json:"events"`
	Seed        int64       `json:"seed"`
	Repeats     int         `json:"repeats"`
	Distance    float64     `json:"distance_m"`
	Frequency   float64     `json:"frequency_hz"`
	Duration    float64     `json:"duration_s"`
	ZJ          [][]float64 `json:"zj"`
}

// NewGoldenMatrix captures a measured matrix together with its recipe.
func NewGoldenMatrix(desc, machineName string, cfg savat.Config, seed int64, repeats int, m *savat.Matrix) *GoldenMatrix {
	g := &GoldenMatrix{
		Description: desc,
		Machine:     machineName,
		Seed:        seed,
		Repeats:     repeats,
		Distance:    cfg.Distance,
		Frequency:   cfg.Frequency,
		Duration:    cfg.Duration,
	}
	for _, e := range m.Events {
		g.Events = append(g.Events, e.String())
	}
	zj := m.ZJ()
	for _, row := range zj.Vals {
		g.ZJ = append(g.ZJ, append([]float64(nil), row...))
	}
	return g
}

// CompareMatrix checks a freshly measured matrix against the golden
// values cell by cell at the given relative tolerance, producing one
// summary check (worst relative deviation) plus one check per
// deviating cell so failures name the exact regression site.
func (g *GoldenMatrix) CompareMatrix(name string, m *savat.Matrix, relTol float64) *Report {
	r := &Report{}
	if len(m.Events) != len(g.Events) {
		r.Add(Check{
			Name: name + "/golden/shape", Pass: false,
			Value: float64(len(m.Events)), Bound: float64(len(g.Events)),
			Detail: "event count differs from golden",
		})
		return r
	}
	for i, e := range m.Events {
		if e.String() != g.Events[i] {
			r.Add(Check{
				Name: name + "/golden/shape", Pass: false,
				Detail: fmt.Sprintf("event %d is %v, golden has %s", i, e, g.Events[i]),
			})
			return r
		}
	}
	worst := 0.0
	for i, row := range m.Vals {
		for j, v := range row {
			want := g.ZJ[i][j] * 1e-21
			d := relDiff(v, want)
			if d > worst {
				worst = d
			}
			if d > relTol {
				r.Add(Check{
					Name: fmt.Sprintf("%s/golden/cell/%s-%s", name, g.Events[i], g.Events[j]),
					Pass: false, Value: d, Bound: relTol,
					Detail: fmt.Sprintf("measured %.6g zJ, golden %.6g zJ", v*1e21, g.ZJ[i][j]),
				})
			}
		}
	}
	r.addBound(name+"/golden/worst-cell", worst, relTol,
		fmt.Sprintf("over %d cells", len(m.Vals)*len(m.Vals)))
	return r
}

// GoldenPSD is a committed reference spectrum slice: the displayed PSD
// of one measurement's band around the alternation frequency, plus the
// scalar results derived from it.
type GoldenPSD struct {
	Description string    `json:"description,omitempty"`
	Machine     string    `json:"machine"`
	Pair        [2]string `json:"pair"`
	Seed        int64     `json:"seed"`
	CenterHz    float64   `json:"center_hz"`
	HalfSpanHz  float64   `json:"half_span_hz"`
	FreqHz      []float64 `json:"freq_hz"`
	PSD         []float64 `json:"psd_w_per_hz"`
	BandPowerW  float64   `json:"band_power_w"`
	SAVATzJ     float64   `json:"savat_zj"`
}

// NewGoldenPSD slices the trace of a measurement around center ±
// halfSpan and records it with the derived scalars.
func NewGoldenPSD(desc, machineName string, m savat.Measurement, seed int64, center, halfSpan float64) (*GoldenPSD, error) {
	freqs, psd, err := psdSlice(m.Trace, center, halfSpan)
	if err != nil {
		return nil, err
	}
	return &GoldenPSD{
		Description: desc,
		Machine:     machineName,
		Pair:        [2]string{m.A.String(), m.B.String()},
		Seed:        seed,
		CenterHz:    center,
		HalfSpanHz:  halfSpan,
		FreqHz:      freqs,
		PSD:         psd,
		BandPowerW:  m.BandPower,
		SAVATzJ:     m.ZJ(),
	}, nil
}

// ComparePSD checks a fresh measurement's trace slice and scalars
// against the golden record.
func (g *GoldenPSD) ComparePSD(name string, m savat.Measurement, relTol float64) *Report {
	r := &Report{}
	freqs, psd, err := psdSlice(m.Trace, g.CenterHz, g.HalfSpanHz)
	if err != nil {
		r.Add(Check{Name: name + "/golden/psd-slice", Pass: false, Detail: err.Error()})
		return r
	}
	if len(psd) != len(g.PSD) {
		r.Add(Check{
			Name: name + "/golden/psd-bins", Pass: false,
			Value: float64(len(psd)), Bound: float64(len(g.PSD)),
			Detail: "bin count differs from golden (RBW or capture length changed)",
		})
		return r
	}
	worst := 0.0
	worstDetail := ""
	for k := range psd {
		if d := relDiff(freqs[k], g.FreqHz[k]); d > 1e-12 {
			r.Add(Check{
				Name: name + "/golden/psd-grid", Pass: false, Value: freqs[k], Bound: g.FreqHz[k],
				Detail: fmt.Sprintf("bin %d frequency moved", k),
			})
			return r
		}
		if d := relDiff(psd[k], g.PSD[k]); d > worst {
			worst = d
			worstDetail = fmt.Sprintf("worst at %.0f Hz: %.6g vs %.6g W/Hz", freqs[k], psd[k], g.PSD[k])
		}
	}
	r.addBound(name+"/golden/psd-worst-bin", worst, relTol, worstDetail)
	r.addBound(name+"/golden/band-power", relDiff(m.BandPower, g.BandPowerW), relTol,
		fmt.Sprintf("measured %.6g W, golden %.6g W", m.BandPower, g.BandPowerW))
	r.addBound(name+"/golden/savat", relDiff(m.ZJ(), g.SAVATzJ), relTol,
		fmt.Sprintf("measured %.6g zJ, golden %.6g zJ", m.ZJ(), g.SAVATzJ))
	return r
}

// psdSlice extracts the displayed PSD over center ± halfSpan as
// (frequency, value) pairs in bin order.
func psdSlice(tr *specan.Trace, center, halfSpan float64) ([]float64, []float64, error) {
	if tr == nil {
		return nil, nil, fmt.Errorf("conform: measurement carries no trace")
	}
	sp := tr.Band()
	var freqs, psd []float64
	err := sp.Walk(center-halfSpan, center+halfSpan, func(k int, v float64) {
		freqs = append(freqs, sp.Freq(k))
		psd = append(psd, v)
	})
	if err != nil {
		return nil, nil, err
	}
	return freqs, psd, nil
}

// relDiff returns |a−b| / max(|a|,|b|), the symmetric relative
// difference (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// LoadGoldenMatrix reads a golden matrix file.
func LoadGoldenMatrix(path string) (*GoldenMatrix, error) {
	var g GoldenMatrix
	if err := loadJSON(path, &g); err != nil {
		return nil, err
	}
	if len(g.ZJ) != len(g.Events) {
		return nil, fmt.Errorf("conform: golden %s: %d rows for %d events", path, len(g.ZJ), len(g.Events))
	}
	for i, row := range g.ZJ {
		if len(row) != len(g.Events) {
			return nil, fmt.Errorf("conform: golden %s: row %d has %d cells for %d events",
				path, i, len(row), len(g.Events))
		}
	}
	return &g, nil
}

// LoadGoldenPSD reads a golden PSD file.
func LoadGoldenPSD(path string) (*GoldenPSD, error) {
	var g GoldenPSD
	if err := loadJSON(path, &g); err != nil {
		return nil, err
	}
	if len(g.FreqHz) != len(g.PSD) {
		return nil, fmt.Errorf("conform: golden %s: %d frequencies for %d PSD bins",
			path, len(g.FreqHz), len(g.PSD))
	}
	return &g, nil
}

// SaveGolden writes any golden record as indented JSON (the format
// regenerated by `go test ./internal/conform -run TestGolden -update`).
func SaveGolden(path string, g any) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("conform: golden %s: %w", path, err)
	}
	return nil
}
