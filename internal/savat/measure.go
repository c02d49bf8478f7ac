package savat

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/activity"
	"repro/internal/counter"
	"repro/internal/emsim"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/specan"
)

// Config holds the measurement-setup parameters shared by a campaign.
// It is part of the CampaignSpec wire format, so every field carries an
// explicit, stable json tag; renaming a Go field must not change the
// serialized shape.
type Config struct {
	// Distance is the antenna distance in metres (paper: 0.10, 0.50, 1.00).
	Distance float64 `json:"distance"`
	// Frequency is the intended alternation frequency in Hz (paper: 80 kHz).
	Frequency float64 `json:"frequency"`
	// BandHalfWidth is the half-width of the measured band around the
	// alternation frequency (paper: 1 kHz).
	BandHalfWidth float64 `json:"band_half_width"`
	// SampleRate is the receiver capture rate in Hz; it must exceed twice
	// the alternation frequency.
	SampleRate float64 `json:"sample_rate"`
	// Duration is the capture length in seconds (paper: ≈1 s for 1 Hz RBW).
	Duration float64 `json:"duration"`
	// WarmupPeriods alternation periods are simulated and discarded before
	// the steady-state activity rates are extracted over MeasurePeriods.
	WarmupPeriods  int `json:"warmup_periods"`
	MeasurePeriods int `json:"measure_periods"`
	// Environment is the noise environment.
	Environment noise.Environment `json:"environment"`
	// Analyzer is the spectrum-analyzer setup.
	Analyzer specan.Config `json:"analyzer"`
	// Jitter is the alternation-period instability model.
	Jitter emsim.Jitter `json:"jitter"`
	// Channel names the measured side channel ("em", "power",
	// "impedance" — see machine.Channels). Empty means "em", the
	// pre-channel-dimension default, so old spec files keep their exact
	// meaning.
	Channel string `json:"channel,omitempty"`
	// Countermeasures is the countermeasure chain applied between the
	// benchmark program and the measured trace (see internal/counter);
	// empty means an unprotected measurement.
	Countermeasures counter.Chain `json:"countermeasures,omitempty"`
}

// DefaultConfig mirrors the paper's setup: 10 cm, 80 kHz, ±1 kHz band,
// 1 s capture analyzed at the instrument's finest RBW, lab noise.
func DefaultConfig() Config {
	return Config{
		Distance:       0.10,
		Frequency:      80e3,
		BandHalfWidth:  1e3,
		SampleRate:     1 << 18,
		Duration:       1.0,
		WarmupPeriods:  3,
		MeasurePeriods: 6,
		Environment:    noise.Lab(),
		Analyzer:       specan.DefaultConfig(),
		Jitter:         emsim.DefaultJitter(),
		Channel:        "em",
	}
}

// FastConfig is DefaultConfig with a quarter-second capture — ~4× faster
// with a proportionally coarser RBW; used by tests and benchmarks.
func FastConfig() Config {
	c := DefaultConfig()
	c.Duration = 0.25
	return c
}

// Normalized returns the configuration with defaults filled in: an
// empty Channel becomes "em" (the pre-channel-dimension pipeline).
// Every campaign entry point normalizes before fingerprinting, so a
// spec written before the channel field existed keys the same cache
// cells as one that names "em" explicitly.
func (c Config) Normalized() Config {
	if c.Channel == "" {
		c.Channel = "em"
	}
	return c
}

// Resource bounds Config.Validate enforces. Both sit far above any
// setup the paper uses (3 warm-up and 6 measured periods; a 1 s
// capture at 2^18 samples/s) and exist so one spec cannot pin a
// worker: a period count keys a shared alternation simulation whose
// cost grows with it, and the capture length sizes every synthesis and
// analysis pass.
const (
	// MaxPeriods bounds WarmupPeriods and MeasurePeriods, each.
	MaxPeriods = 1000
	// MaxCaptureSamples bounds Duration × SampleRate: 2^24 samples, a
	// 64 s capture at the default rate.
	MaxCaptureSamples = 1 << 24
)

// Validate reports the first configuration problem. Distance,
// frequency, channel, and countermeasure problems wrap the package
// sentinels (ErrBadDistance, ErrBadFrequency, ErrUnknownChannel,
// ErrBadCountermeasure) so callers at any layer can test with errors.Is;
// a NaN or infinite value anywhere else wraps ErrNonFinite, a period
// count or capture length beyond MaxPeriods or MaxCaptureSamples wraps
// ErrTooLarge, and every other inconsistency wraps ErrBadConfig.
func (c Config) Validate() error {
	switch {
	case !(c.Distance > 0) || math.IsInf(c.Distance, 1):
		return fmt.Errorf("%w: %g m", ErrBadDistance, c.Distance)
	case !(c.Frequency > 0) || math.IsInf(c.Frequency, 1):
		return fmt.Errorf("%w: %g Hz", ErrBadFrequency, c.Frequency)
	}
	if name, v, ok := c.firstNonFinite(); ok {
		return fmt.Errorf("%w: %s = %g", ErrNonFinite, name, v)
	}
	switch {
	case c.BandHalfWidth <= 0 || c.BandHalfWidth >= c.Frequency:
		return fmt.Errorf("%w: band half-width %g outside (0, f0)", ErrBadConfig, c.BandHalfWidth)
	case c.SampleRate < 2*(c.Frequency+c.BandHalfWidth):
		return fmt.Errorf("%w: sample rate %g below Nyquist for %g Hz", ErrBadConfig, c.SampleRate, c.Frequency)
	case c.Duration <= 0:
		return fmt.Errorf("%w: non-positive duration %g", ErrBadConfig, c.Duration)
	case c.WarmupPeriods < 0 || c.MeasurePeriods <= 0:
		return fmt.Errorf("%w: bad period counts warmup=%d measure=%d", ErrBadConfig, c.WarmupPeriods, c.MeasurePeriods)
	case c.WarmupPeriods > MaxPeriods || c.MeasurePeriods > MaxPeriods:
		return fmt.Errorf("%w: period counts warmup=%d measure=%d exceed %d", ErrTooLarge, c.WarmupPeriods, c.MeasurePeriods, MaxPeriods)
	case c.Duration*c.SampleRate > MaxCaptureSamples:
		return fmt.Errorf("%w: capture of %g samples exceeds %d", ErrTooLarge, c.Duration*c.SampleRate, MaxCaptureSamples)
	}
	if err := c.Environment.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if err := c.Analyzer.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if _, err := machine.ChannelByName(c.Channel); err != nil {
		return fmt.Errorf("%w: %q (have %v)", ErrUnknownChannel, c.Channel, machine.ChannelNames())
	}
	if err := c.Countermeasures.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCountermeasure, err)
	}
	return nil
}

// firstNonFinite names the first NaN or infinite float among the
// fields Validate does not give a sentinel of their own (countermeasure
// parameters are checked by the chain's own validation).
func (c Config) firstNonFinite() (string, float64, bool) {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"band_half_width", c.BandHalfWidth},
		{"sample_rate", c.SampleRate},
		{"duration", c.Duration},
		{"environment.thermal_psd", c.Environment.ThermalPSD},
		{"environment.rf_background_psd", c.Environment.RFBackgroundPSD},
		{"environment.rf_background_spread", c.Environment.RFBackgroundSpread},
		{"analyzer.rbw", c.Analyzer.RBW},
		{"analyzer.floor_psd", c.Analyzer.FloorPSD},
		{"jitter.freq_offset", c.Jitter.FreqOffset},
		{"jitter.drift_std", c.Jitter.DriftStd},
		{"jitter.max_drift", c.Jitter.MaxDrift},
		{"jitter.amp_noise_std", c.Jitter.AmpNoiseStd},
		{"jitter.amp_noise_corr", c.Jitter.AmpNoiseCorr},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return f.name, f.v, true
		}
	}
	for _, cr := range c.Environment.Carriers {
		for _, v := range [...]float64{cr.Freq, cr.Power, cr.AMDepth, cr.AMRate} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "environment.carriers", v, true
			}
		}
	}
	return "", 0, false
}

// Measurement is the result of one A/B SAVAT measurement.
type Measurement struct {
	A, B Event
	// SAVAT is the signal energy available to the attacker per A/B
	// instruction pair, in joules (the paper reports zeptojoules).
	SAVAT float64
	// BandPower is the received power integrated over the measurement
	// band, in watts.
	BandPower float64
	// PairsPerSecond is the divisor used (loop count / achieved period).
	PairsPerSecond float64
	// LoopCount is the calibrated inst_loop_count.
	LoopCount int
	// ActualFrequency is the achieved alternation frequency (cycle-level;
	// the additional run-time drift appears in the spectrum, not here).
	ActualFrequency float64
	// Trace is the recorded spectrum (for the Figure 7/8 plots).
	Trace *specan.Trace
}

// ZJ returns the SAVAT value in zeptojoules (10⁻²¹ J), the paper's unit.
func (m Measurement) ZJ() float64 { return m.SAVAT * 1e21 }

// measureKernelReference is the direct-rendering measurement pipeline:
// every coherence group rendered in the time domain from the canonical
// 50/50 envelope pair with its duty-scaled phase amplitudes, and every
// stream analyzed with its own Welch pass. It consumes the same
// per-stage seeds and computes the same quantity as the fast path —
// equivalence tests hold the two within 1e-9 relative — and remains
// the readable specification of the pipeline as well as the ablations'
// entry point.
func measureKernelReference(mc machine.Config, k *Kernel, cfg Config, law emsim.DistanceLaw, seeds SynthSeeds, mo *measureObs) (Measurement, error) {
	if err := cfg.Validate(); err != nil {
		return Measurement{}, err
	}

	// 1. Cycle-accurate steady-state activity of the alternation loop.
	altSp := mo.alternation.Start()
	alt, err := k.Alternation(mc, cfg.WarmupPeriods, cfg.MeasurePeriods)
	altSp.End()
	if err != nil {
		return Measurement{}, err
	}

	// 2. Radiate: per-component coupling at the measurement distance
	// with repetition-specific spatial phases (the Cal seed — one
	// antenna placement per campaign repetition). The pair's achieved
	// alternation sets the phase amplitudes (droop compensation
	// included) and its duty cycle d scales them by sin(πd), restoring
	// the duty-d fundamental on the canonical 50/50 timeline — see
	// MeasureScratch.prepare, whose coefficient computation this
	// mirrors.
	radSp := mo.radiate.Start()
	rad, err := emsim.NewRadiatorLaw(mc.Sources, cfg.Distance, mc.AsymmetrySourceAmp, law, rand.New(rand.NewSource(seeds.Cal)))
	radSp.End()
	if err != nil {
		return Measurement{}, err
	}
	actual := emsim.Alternation{
		Rates:       [2]activity.Vector{alt.PhaseStats[0].MeanRates, alt.PhaseStats[1].MeanRates},
		HalfSeconds: alt.HalfSeconds,
	}
	n := int(cfg.Duration * cfg.SampleRate)
	jit := cfg.Jitter
	if jit.AmpNoiseStd == 0 {
		jit.AmpNoiseStd = mc.AmplitudeNoiseStd
	}
	amps, err := rad.PhaseAmplitudes(actual, cfg.SampleRate)
	if err != nil {
		return Measurement{}, err
	}
	duty := complex(emsim.DutyAmplitudeFactor(actual.Duty()), 0)
	active := 0
	for g := 0; g < emsim.NumGroups; g++ {
		if amps[g][0] != 0 || amps[g][1] != 0 {
			active++
		}
	}

	// 3. Synthesis: the canonical envelope pair (Env seed), rendered
	// into one time-domain stream per active group, then the
	// environment noise (Noise seed) as one more incoherent
	// contribution. A fully silent kernel renders no envelopes at all.
	synSp := mo.synthesize.Start()
	streams := make([][]complex128, 0, active+1)
	if active > 0 {
		envs, err := emsim.SynthesizeEnvelopes(emsim.CanonicalTimeline(cfg.Frequency),
			cfg.SampleRate, n, jit, rand.New(rand.NewSource(seeds.Env)), nil)
		if err != nil {
			return Measurement{}, err
		}
		for g := 0; g < emsim.NumGroups; g++ {
			if amps[g][0] == 0 && amps[g][1] == 0 {
				continue
			}
			a0, b0 := amps[g][0]*duty, amps[g][1]*duty
			stream := make([]complex128, n)
			for i := range stream {
				stream[i] = a0*complex(envs.A[i], 0) + b0*complex(envs.B[i], 0)
			}
			streams = append(streams, stream)
		}
	}
	noiseStream := make([]complex128, n)
	err = cfg.Environment.Apply(noiseStream, cfg.SampleRate, rand.New(rand.NewSource(seeds.Noise)))
	synSp.End()
	if err != nil {
		return Measurement{}, err
	}
	streams = append(streams, noiseStream)

	// 4. Spectrum analysis and band power around the intended frequency.
	// Group signals and noise are mutually incoherent: powers add.
	an, err := specan.New(cfg.Analyzer)
	if err != nil {
		return Measurement{}, err
	}
	tr, err := an.AnalyzeIncoherent(streams, cfg.SampleRate)
	if err != nil {
		return Measurement{}, err
	}

	// 5. Energy per A/B instruction pair.
	return finish(k, alt, cfg, tr)
}
