package noise

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/buf"
	"repro/internal/obs"
)

// Streaming-synthesis metrics, recorded once per block so the
// per-sample loops stay untouched. No-ops until the registry is
// enabled.
var (
	mBlocks  = obs.Default.Counter("noise.blocks")
	mSamples = obs.Default.Counter("noise.samples")
)

// carrierState is one interferer's streaming synthesis state: the
// precomputed per-sample rotation steps and the current carrier and AM
// phasors, carried across blocks so block boundaries never change the
// multiply sequence.
type carrierState struct {
	amp      float64
	depth    float64
	freqNorm float64
	amNorm   float64
	carStep  complex128
	amStep   complex128
	ph0      float64
	car      complex128
	am       complex128
}

// Stream renders one campaign's noise realization block by block
// instead of materializing the whole capture. Draw order is: the
// background-level draw and every carrier's starting phase up front (on
// the first Next, so a caller can interleave construction with other
// rng consumers), then the white-noise draws strictly in sample order.
// Rendering the capture in one block or many produces bit-identical
// samples: white draws are per-sample, carrier phasors carry across
// blocks, and re-anchoring happens at fixed global indices
// (multiples of carrierRenorm) regardless of blocking. Apply drains a
// Stream, so the buffered path is the same code.
//
// A Stream is NOT safe for concurrent use, and the rng must not be
// consumed by anything else between the first Next and the last.
type Stream struct {
	env      Environment
	fs       float64
	rng      *rand.Rand
	sigma    float64
	carriers []carrierState
	pos      int
	n        int
	inited   bool
}

// Init validates the environment and (re)initializes s in place to
// produce exactly n samples at rate fs, reusing its carrier state
// storage — a scratch-held Stream re-initialized per measurement
// allocates nothing in steady state. No rng draws happen until the
// first Next.
func (s *Stream) Init(env Environment, fs float64, n int, rng *rand.Rand) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if fs <= 0 {
		return fmt.Errorf("noise: sample rate %g", fs)
	}
	if n < 0 {
		return fmt.Errorf("noise: negative capture length %d", n)
	}
	if rng == nil {
		return fmt.Errorf("noise: nil rng")
	}
	s.env = env
	s.fs = fs
	s.rng = rng
	s.pos = 0
	s.n = n
	s.inited = false
	s.carriers = buf.Grow(s.carriers, len(env.Carriers))
	return nil
}

// start performs the capture-level draws: the campaign's background
// level, then each carrier's starting phase, in carrier order.
func (s *Stream) start() {
	bg := s.env.RFBackgroundPSD
	if s.env.RFBackgroundSpread > 0 {
		bg *= 1 + s.env.RFBackgroundSpread*(2*s.rng.Float64()-1)
	}
	// White complex noise: total PSD spread uniformly over fs; per-part
	// variance σ² with 2σ²·(1/fs)... PSD = 2σ²/fs ⇒ σ = √(PSD·fs/2).
	s.sigma = math.Sqrt((s.env.ThermalPSD + bg) * s.fs / 2)
	for i, c := range s.env.Carriers {
		cs := &s.carriers[i]
		cs.amp = math.Sqrt(c.Power)
		cs.depth = c.AMDepth
		cs.freqNorm = c.Freq / s.fs
		cs.amNorm = c.AMRate / s.fs
		cs.ph0 = 2 * math.Pi * s.rng.Float64()
		cs.carStep = rotation(cs.freqNorm)
		cs.amStep = rotation(cs.amNorm)
	}
	s.inited = true
}

// Next overwrites dst[:k] with the next k = min(len(dst), remaining)
// noise samples and returns k; 0 means the stream is drained.
func (s *Stream) Next(dst []complex128) (int, error) {
	if s.rng == nil {
		return 0, fmt.Errorf("noise: uninitialized stream")
	}
	if !s.inited {
		s.start()
	}
	k := len(dst)
	if rem := s.n - s.pos; k > rem {
		k = rem
	}
	if k == 0 {
		return 0, nil
	}
	dst = dst[:k]
	rng, sigma := s.rng, s.sigma
	for i := range dst {
		dst[i] = complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	// Discrete carriers by phasor rotation: one complex multiply per
	// sample instead of two or three trig calls. Rotation accumulates
	// rounding, so both phasors are re-anchored from an exact sin/cos
	// every carrierRenorm samples — at global indices, so the anchor
	// points (and hence every phasor value) do not depend on how the
	// capture is split into blocks.
	for ci := range s.carriers {
		c := &s.carriers[ci]
		car, am := c.car, c.am
		for i := range dst {
			if g := s.pos + i; g%carrierRenorm == 0 {
				car = anchor(c.freqNorm, g, c.ph0)
				am = anchor(c.amNorm, g, 0)
			}
			a := c.amp * (1 + c.depth*imag(am))
			dst[i] += complex(a*real(car), a*imag(car))
			car *= c.carStep
			am *= c.amStep
		}
		c.car, c.am = car, am
	}
	s.pos += k
	mBlocks.Inc()
	mSamples.Add(uint64(k))
	return k, nil
}
