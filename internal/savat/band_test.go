package savat

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/specan"
)

// A fast-path trace holds the analyzed band only: f0 ± 2 kHz at the
// paper's setting. Reads inside it succeed; a read that leaves it fails
// with specan.ErrOutsideBand instead of reading zeros.
func TestTraceReadsOutsideBandFail(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	m, err := NewMeasurer(mc, cfg).Measure(ADD, LDM, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	h := cfg.AnalysisHalfSpan()
	if h != DisplayHalfSpan {
		t.Fatalf("analysis half-span %g, want the display half-span %g", h, DisplayHalfSpan)
	}
	if _, err := m.Trace.BandPower(cfg.Frequency, h); err != nil {
		t.Errorf("read of the whole analyzed band failed: %v", err)
	}
	if _, _, err := m.Trace.Peak(cfg.Frequency, cfg.BandHalfWidth); err != nil {
		t.Errorf("peak in the measured band failed: %v", err)
	}
	for _, r := range [][2]float64{
		{cfg.Frequency, h + 50},             // wider than the band
		{cfg.Frequency + h, 100},            // across the top edge
		{cfg.Frequency - 10e3, 500},         // wholly below
		{0, 1e3},                            // across DC
		{-cfg.Frequency, cfg.BandHalfWidth}, // the mirror frequency
	} {
		if _, err := m.Trace.BandPower(r[0], r[1]); !errors.Is(err, specan.ErrOutsideBand) {
			t.Errorf("BandPower(%g, %g) = %v, want ErrOutsideBand", r[0], r[1], err)
		}
		if _, _, err := m.Trace.Peak(r[0], r[1]); !errors.Is(err, specan.ErrOutsideBand) {
			t.Errorf("Peak(%g, %g) = %v, want ErrOutsideBand", r[0], r[1], err)
		}
	}
}

// A configuration whose f0 + 2 kHz passes Nyquist (and one whose
// f0 − 2 kHz passes DC) still measures: the analyzed band is clamped to
// [0, fs/2], and the result agrees with the full-spectrum reference.
func TestClampedBandMeasures(t *testing.T) {
	mc := machine.Core2Duo()
	for _, c := range []struct {
		name          string
		f0, halfWidth float64
	}{
		{"near-nyquist", 130e3, 500},
		{"near-dc", 1500, 500},
	} {
		cfg := FastConfig()
		cfg.Duration = 1.0 / 16
		cfg.Frequency, cfg.BandHalfWidth = c.f0, c.halfWidth
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		band := cfg.analysisBand()
		if band.Lo != math.Max(c.f0-DisplayHalfSpan, 0) || band.Hi != math.Min(c.f0+DisplayHalfSpan, cfg.SampleRate/2) {
			t.Fatalf("%s: band %+v not clamped to [0, fs/2]", c.name, band)
		}
		k, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewMeasurer(mc, cfg).MeasureKernel(k, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref, err := NewMeasurer(mc, cfg, WithReference()).MeasureKernel(k, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if !(fast.SAVAT > 0) || math.IsInf(fast.SAVAT, 0) {
			t.Fatalf("%s: SAVAT %g", c.name, fast.SAVAT)
		}
		if d := math.Abs(fast.SAVAT-ref.SAVAT) / ref.SAVAT; d > 1e-9 {
			t.Errorf("%s: fast %g vs reference %g (rel %g)", c.name, fast.SAVAT, ref.SAVAT, d)
		}
		sp := fast.Trace.Band()
		if c.f0 > cfg.SampleRate/4 && sp.Offset+len(sp.PSD) != sp.N/2+1 {
			t.Errorf("%s: band ends at bin %d, want the Nyquist bin %d", c.name, sp.Offset+len(sp.PSD)-1, sp.N/2)
		}
		if c.f0 < cfg.SampleRate/4 && sp.Offset != 0 {
			t.Errorf("%s: band starts at bin %d, want DC", c.name, sp.Offset)
		}
	}
}
