package emsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// Envelope-synthesis metrics, recorded once per block so the edge-walk
// loop stays untouched. No-ops until the registry is enabled.
var (
	mBlocks  = obs.Default.Counter("emsim.blocks")
	mSamples = obs.Default.Counter("emsim.samples")
)

// EnvelopeStream renders the two shared per-phase envelope streams (see
// Envelopes) one block at a time instead of materializing the whole
// capture: the edge-walking state — current time, phase, drift walk,
// fluctuation AR(1) state, and next edge — carries across Next calls,
// and the rng is consumed in exactly the per-sample order of the
// buffered renderer. SynthesizeEnvelopes is implemented as one
// full-length Next on a fresh stream, so the streaming and buffered
// paths are the same code and produce bit-identical samples for any
// block partitioning.
//
// An EnvelopeStream is NOT safe for concurrent use, and the rng must
// not be consumed by anything else until the stream is drained.
type EnvelopeStream struct {
	rng *rand.Rand

	// Immutable per-capture parameters.
	half     [2]float64 // alternation half durations (seconds)
	jit      Jitter
	maxDrift float64
	rho      float64
	ampStep  float64
	dt       float64
	fs       float64

	// Edge-walking state, advanced sample by sample.
	phase    int
	walk     float64
	scale    float64
	ampFluct [2]float64
	fact     [2]float64
	tEdge    float64
	t        float64

	remaining int
}

// Init validates the parameters and (re)initializes s in place to
// produce exactly n samples — a scratch-held stream re-initialized per
// measurement allocates nothing. It performs the stream's three leading
// rng draws (two fluctuation values and the edge phase) immediately.
func (s *EnvelopeStream) Init(alt Alternation, fs float64, n int, jit Jitter, rng *rand.Rand) error {
	if err := alt.Validate(); err != nil {
		return err
	}
	if fs <= 0 || n <= 0 {
		return fmt.Errorf("emsim: bad synthesis parameters fs=%v n=%d", fs, n)
	}
	if err := jit.Validate(alt.HalfSeconds[0]+alt.HalfSeconds[1], fs); err != nil {
		return err
	}
	*s = EnvelopeStream{rng: rng, jit: jit, fs: fs, remaining: n}
	s.half = alt.HalfSeconds

	s.maxDrift = jit.MaxWalk()
	s.rho = jit.AmpNoiseCorr
	if s.rho == 0 {
		s.rho = 0.99
	}
	s.ampStep = jit.AmpNoiseStd * math.Sqrt(1-s.rho*s.rho)

	s.dt = 1 / fs
	s.scale = 1 + jit.FreqOffset
	s.ampFluct = [2]float64{jit.AmpNoiseStd * rng.NormFloat64(), jit.AmpNoiseStd * rng.NormFloat64()}
	s.tEdge = rng.Float64() * alt.HalfSeconds[0] * s.scale
	s.fact = [2]float64{1 + s.ampFluct[0], 1 + s.ampFluct[1]}
	return nil
}

// Next renders the next min(len(dstA), remaining) samples into dstA
// and dstB (which must have equal length) and returns how many were
// written; 0 means the stream is drained.
func (s *EnvelopeStream) Next(dstA, dstB []float64) (int, error) {
	if len(dstA) != len(dstB) {
		return 0, fmt.Errorf("emsim: envelope block length mismatch %d vs %d", len(dstA), len(dstB))
	}
	n := len(dstA)
	if n > s.remaining {
		n = s.remaining
	}
	if n == 0 {
		return 0, nil
	}

	// The edge-walking loop is the envelope synthesis hot path; the phase
	// advance is inlined (no closure) and the state is carried in locals
	// so the per-sample work is straight-line float arithmetic. This is
	// the one copy of the loop: the buffered SynthesizeEnvelopes drains a
	// stream, so every path executes these exact operations.
	rng, jit := s.rng, s.jit
	dt := s.dt
	phase, walk, scale := s.phase, s.walk, s.scale
	ampFluct, fact := s.ampFluct, s.fact
	tEdge, t := s.tEdge, s.t
	for m := 0; m < n; m++ {
		end := t + dt
		var accA, accB float64
		for t < end {
			segEnd := end
			if tEdge < end {
				segEnd = tEdge
			}
			w := (segEnd - t) * fact[phase]
			if phase == 0 {
				accA += w
			} else {
				accB += w
			}
			t = segEnd
			if t >= tEdge {
				phase ^= 1
				if phase == 0 { // new full period: step the drift walk and fluctuation
					walk += rng.NormFloat64() * jit.DriftStd
					walk = math.Max(-s.maxDrift, math.Min(s.maxDrift, walk))
					scale = 1 + jit.FreqOffset + walk
					if jit.AmpNoiseStd > 0 {
						for p := 0; p < 2; p++ {
							ampFluct[p] = s.rho*ampFluct[p] + s.ampStep*rng.NormFloat64()
							fact[p] = 1 + ampFluct[p]
						}
					}
				}
				tEdge += s.half[phase] * scale
			}
		}
		dstA[m] = accA * s.fs // average envelope over the sample
		dstB[m] = accB * s.fs
	}
	s.phase, s.walk, s.scale = phase, walk, scale
	s.ampFluct, s.fact = ampFluct, fact
	s.tEdge, s.t = tEdge, t
	s.remaining -= n
	mBlocks.Inc()
	mSamples.Add(uint64(n))
	return n, nil
}
