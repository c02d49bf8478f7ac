package savat

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/noise"
)

// Every float field rejects NaN and ±Inf with a sentinel, and period
// counts and the capture length stop at their documented bounds, so no
// configuration reaches the pipeline to come back as a NaN SAVAT, a
// panic, or an unbounded simulation or capture.
func TestConfigValidateNonFiniteAndBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(c *Config)
		want error
	}{
		{"distance-nan", func(c *Config) { c.Distance = nan }, ErrBadDistance},
		{"distance-inf", func(c *Config) { c.Distance = inf }, ErrBadDistance},
		{"distance-neg-inf", func(c *Config) { c.Distance = -inf }, ErrBadDistance},
		{"frequency-nan", func(c *Config) { c.Frequency = nan }, ErrBadFrequency},
		{"frequency-inf", func(c *Config) { c.Frequency = inf }, ErrBadFrequency},
		{"band-nan", func(c *Config) { c.BandHalfWidth = nan }, ErrNonFinite},
		{"sample-rate-inf", func(c *Config) { c.SampleRate = inf }, ErrNonFinite},
		{"duration-nan", func(c *Config) { c.Duration = nan }, ErrNonFinite},
		{"duration-inf", func(c *Config) { c.Duration = inf }, ErrNonFinite},
		{"thermal-nan", func(c *Config) { c.Environment.ThermalPSD = nan }, ErrNonFinite},
		{"background-inf", func(c *Config) { c.Environment.RFBackgroundPSD = inf }, ErrNonFinite},
		{"spread-nan", func(c *Config) { c.Environment.RFBackgroundSpread = nan }, ErrNonFinite},
		{"carrier-nan", func(c *Config) {
			c.Environment.Carriers = append([]noise.Carrier(nil), c.Environment.Carriers...)
			c.Environment.Carriers = append(c.Environment.Carriers, noise.Carrier{Freq: nan, Power: 1e-15})
		}, ErrNonFinite},
		{"rbw-nan", func(c *Config) { c.Analyzer.RBW = nan }, ErrNonFinite},
		{"floor-inf", func(c *Config) { c.Analyzer.FloorPSD = inf }, ErrNonFinite},
		{"freq-offset-nan", func(c *Config) { c.Jitter.FreqOffset = nan }, ErrNonFinite},
		{"drift-inf", func(c *Config) { c.Jitter.DriftStd = -inf }, ErrNonFinite},
		{"max-drift-nan", func(c *Config) { c.Jitter.MaxDrift = nan }, ErrNonFinite},
		{"amp-noise-nan", func(c *Config) { c.Jitter.AmpNoiseStd = nan }, ErrNonFinite},
		{"amp-corr-inf", func(c *Config) { c.Jitter.AmpNoiseCorr = inf }, ErrNonFinite},
		{"warmup-over", func(c *Config) { c.WarmupPeriods = MaxPeriods + 1 }, ErrTooLarge},
		{"measure-over", func(c *Config) { c.MeasurePeriods = MaxPeriods + 1 }, ErrTooLarge},
		{"capture-over", func(c *Config) { c.Duration = 2 * MaxCaptureSamples / c.SampleRate }, ErrTooLarge},
		// The band's top edge exactly at fs/2 has no bin.
		{"band-at-nyquist", func(c *Config) { c.SampleRate = 2 * (c.Frequency + c.BandHalfWidth) }, ErrBadConfig},
		{"band-above-nyquist", func(c *Config) { c.SampleRate = 2*(c.Frequency+c.BandHalfWidth) - 1 }, ErrBadConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}

	// The bounds themselves are accepted.
	cfg := DefaultConfig()
	cfg.WarmupPeriods, cfg.MeasurePeriods = MaxPeriods, MaxPeriods
	cfg.Duration = MaxCaptureSamples / cfg.SampleRate
	if err := cfg.Validate(); err != nil {
		t.Errorf("configuration at the bounds rejected: %v", err)
	}
	cfg = DefaultConfig()
	cfg.SampleRate = 2*(cfg.Frequency+cfg.BandHalfWidth) + 2
	if err := cfg.Validate(); err != nil {
		t.Errorf("sample rate just above the band's Nyquist rate rejected: %v", err)
	}
}

// finish is the backstop behind Config.Validate: a band power over a
// pair rate that comes out zero, negative or non-finite is refused with
// ErrNonFinite, never returned as a SAVAT.
func TestFinishRefusesNonFiniteSAVAT(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	k, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeasurer(mc, cfg).MeasureKernel(k, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, half := range []float64{0, -1e-6, math.NaN()} {
		alt := &AlternationResult{Kernel: k, HalfSeconds: [2]float64{half, half}}
		if got, err := finish(k, alt, cfg, m.Trace); !errors.Is(err, ErrNonFinite) {
			t.Errorf("half period %g: finish = %g, %v; want ErrNonFinite", half, got.SAVAT, err)
		}
	}
}
