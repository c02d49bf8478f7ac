// Package noise models everything the antenna picks up that is not the
// program's alternation signal: the receiver's thermal floor, the diffuse
// urban RF background, and discrete narrowband radio carriers.
//
// The paper's Figure 8 (an ADD/ADD alternation, i.e. no real signal)
// attributes the measured floor to exactly these sources plus residual
// loop mismatch; the Environment type reproduces them. The RF background
// level varies from campaign to campaign, which is one of the error
// sources behind the paper's 10-campaign σ/mean ≈ 0.05 repeatability.
package noise

import (
	"fmt"
	"math"
	"math/rand"
)

// Carrier is one discrete narrowband interferer, e.g. a distant LF/VLF
// transmitter near the measurement band.
// The json tags are part of the savat.CampaignSpec wire format.
type Carrier struct {
	Freq    float64 `json:"freq"`     // Hz in the receiver's baseband
	Power   float64 `json:"power"`    // carrier power in watts at the analyzer input
	AMDepth float64 `json:"am_depth"` // amplitude modulation depth [0,1]
	AMRate  float64 `json:"am_rate"`  // modulation rate in Hz
}

// Validate reports the first problem with the carrier.
func (c Carrier) Validate() error {
	if c.Power < 0 {
		return fmt.Errorf("noise: negative carrier power %g", c.Power)
	}
	if c.AMDepth < 0 || c.AMDepth > 1 {
		return fmt.Errorf("noise: AM depth %g outside [0,1]", c.AMDepth)
	}
	if c.AMRate < 0 {
		return fmt.Errorf("noise: negative AM rate %g", c.AMRate)
	}
	return nil
}

// Environment describes the complete noise environment of one setup.
// The json tags are part of the savat.CampaignSpec wire format.
type Environment struct {
	// ThermalPSD is the receiver's white-noise floor in W/Hz (the paper's
	// instrument shows ≈ 6×10⁻¹⁸ W/Hz).
	ThermalPSD float64 `json:"thermal_psd"`
	// RFBackgroundPSD is the mean diffuse radio background in W/Hz. It is
	// distance-independent (ambient) and dominates the A/A measurement
	// floor.
	RFBackgroundPSD float64 `json:"rf_background_psd"`
	// RFBackgroundSpread is the fractional campaign-to-campaign variation
	// of the background level.
	RFBackgroundSpread float64 `json:"rf_background_spread"`
	// Carriers are discrete interferers.
	Carriers []Carrier `json:"carriers,omitempty"`
}

// MaxPSD bounds the environment's noise densities, in W/Hz: one watt
// per hertz at the analyzer input is some twenty orders of magnitude
// above the paper's floor, and a density near the float64 range
// overflows the realization's powers.
const MaxPSD = 1

// Validate reports the first problem with the environment.
func (e Environment) Validate() error {
	if e.ThermalPSD < 0 || e.RFBackgroundPSD < 0 {
		return fmt.Errorf("noise: negative PSD in %+v", e)
	}
	if e.ThermalPSD > MaxPSD || e.RFBackgroundPSD > MaxPSD {
		return fmt.Errorf("noise: PSD above %g W/Hz (thermal %g, background %g)", float64(MaxPSD), e.ThermalPSD, e.RFBackgroundPSD)
	}
	if e.RFBackgroundSpread < 0 || e.RFBackgroundSpread >= 1 {
		return fmt.Errorf("noise: background spread %g outside [0,1)", e.RFBackgroundSpread)
	}
	for _, c := range e.Carriers {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Quiet returns an environment with only the receiver thermal floor —
// useful for calibration runs and tests.
func Quiet() Environment {
	return Environment{ThermalPSD: 6e-18}
}

// Lab returns the default measurement environment calibrated against the
// paper's Figure 8: a 6×10⁻¹⁸ W/Hz instrument floor, a diffuse background
// that sets the ≈0.6 zJ ADD/ADD SAVAT floor, and one weak carrier just
// outside the ±1 kHz measurement band (the "weak external radio signal"
// annotated in Figure 8).
func Lab() Environment {
	return Environment{
		ThermalPSD:         6e-18,
		RFBackgroundPSD:    3.8e-17,
		RFBackgroundSpread: 0.12,
		Carriers: []Carrier{
			{Freq: 81.7e3, Power: 2.5e-13, AMDepth: 0.3, AMRate: 7.0},
		},
	}
}

// Apply adds one campaign's noise realization to the samples in place.
// The same Environment with the same rng stream is fully deterministic.
// It drains a Stream, so buffered and streaming noise are one copy of
// the synthesis (and one rng draw order: background level, carrier
// phases, then white noise in sample order) and bit-identical by
// construction.
func (e Environment) Apply(x []complex128, fs float64, rng *rand.Rand) error {
	var s Stream
	if err := s.Init(e, fs, len(x), rng); err != nil {
		return err
	}
	// Render in bounded blocks and accumulate. Blocking does not change
	// the rendered values (see Stream).
	var tmp [1024]complex128
	for off := 0; off < len(x); {
		k, err := s.Next(tmp[:])
		if err != nil {
			return err
		}
		if k == 0 {
			break
		}
		for i := 0; i < k; i++ {
			x[off+i] += tmp[i]
		}
		off += k
	}
	return nil
}

// carrierRenorm is the phasor re-anchoring block size.
const carrierRenorm = 1024

// rotation returns the per-sample phasor step exp(2πi·freqNorm).
func rotation(freqNorm float64) complex128 {
	s, c := math.Sincos(2 * math.Pi * freqNorm)
	return complex(c, s)
}

// anchor returns the exact phasor exp(i·(2π·freqNorm·idx + ph0)),
// reducing the turn count modulo 1 before the trig call so the anchor
// stays full-precision for arbitrarily long captures.
func anchor(freqNorm float64, idx int, ph0 float64) complex128 {
	s, c := math.Sincos(2*math.Pi*math.Mod(freqNorm*float64(idx), 1) + ph0)
	return complex(c, s)
}
