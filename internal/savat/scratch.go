package savat

import (
	"context"
	"math/rand"

	"repro/internal/activity"
	"repro/internal/emsim"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/specan"
)

// seededRand is a reseedable rng: one source allocated on first use,
// re-seeded per measurement stage so the steady-state path allocates no
// rng state.
type seededRand struct {
	src rand.Source
	rng *rand.Rand
}

func (s *seededRand) at(seed int64) *rand.Rand {
	if s.rng == nil {
		s.src = rand.NewSource(seed)
		s.rng = rand.New(s.src)
	} else {
		s.src.Seed(seed)
	}
	return s.rng
}

// MeasureScratch holds every reusable buffer of the measurement fast
// path: the streaming envelope and noise sources, the spectrum
// analyzer's working set, the radiator value, the per-stage rngs, and
// the last envelope and noise products (see productSlot), which a
// measurement without a shared SynthCache reuses when its seed repeats
// and recomputes in place otherwise. Every buffer grows on demand and
// is reused by capacity, so a warmed scratch measures without
// allocating unless a measurement outgrows the buffers it already
// holds. Cycle-accurate
// alternation results are not per scratch: they come from the
// process-wide simulation cache (see simCache), which every scratch
// shares.
//
// A MeasureScratch is NOT safe for concurrent use; the campaign engine
// gives each worker its own, and the workers share one
// concurrency-safe SynthCache instead of the scratch slots. Campaigns
// take their workers' scratches from a process-wide free list (see
// workerScratches), so a warm process starts each campaign with its
// working set already allocated.
type MeasureScratch struct {
	coeffs [][2]complex128
	rad    emsim.Radiator
	specan *specan.Scratch

	// Per-stage rngs, reseeded from the measurement's SynthSeeds.
	calRng, envRng, noiseRng seededRand

	// Streaming sources, re-initialized per measurement.
	envStream   emsim.EnvelopeStream
	noiseStream noise.Stream

	// The last products computed through this scratch without a shared
	// cache, keyed by recipe.
	envSlot, noiseSlot productSlot

	analyzer    *specan.Analyzer
	analyzerCfg specan.Config
}

// NewMeasureScratch returns an empty scratch; buffers are sized on
// first use.
func NewMeasureScratch() *MeasureScratch {
	return &MeasureScratch{specan: specan.NewScratch()}
}

// finish turns a recorded trace into the Measurement: band power
// around the intended frequency, then energy per A/B instruction pair.
func finish(k *Kernel, alt *AlternationResult, cfg Config, tr *specan.Trace) (Measurement, error) {
	p, err := tr.BandPower(cfg.Frequency, cfg.BandHalfWidth)
	if err != nil {
		return Measurement{}, err
	}
	pairs := alt.PairsPerSecond()
	return Measurement{
		A: k.A, B: k.B,
		SAVAT:           p / pairs,
		BandPower:       p,
		PairsPerSecond:  pairs,
		LoopCount:       k.LoopCount,
		ActualFrequency: alt.ActualFrequency(),
		Trace:           tr,
	}, nil
}

// measureKernelStream is the measurement fast path: the envelope and
// noise spectral products are read through cache — or, when it is nil,
// the scratch's product slots — computed, on a miss, by the O(segment)
// streaming renderers (emsim.EnvelopeStream + noise.Stream feeding
// specan's product walks); skipped entirely on a hit — and the cell's
// trace is assembled by the FFT-free specan.Render. Values match the
// reference pipeline within rounding (the equivalence tests bound the
// relative difference by 1e-9), and the per-segment primitives are
// bit-identical to specan's buffered Welch passes.
//
// The returned Measurement's Trace aliases the scratch and is valid
// until the scratch's next measurement; callers that keep traces must
// use distinct scratches. A nil scratch is allowed; a fresh one is
// used.
func measureKernelStream(ctx context.Context, mc machine.Config, k *Kernel, cfg Config, law emsim.DistanceLaw, seeds SynthSeeds, envKey, noiseKey productKey, s *MeasureScratch, cache *SynthCache) (Measurement, error) {
	if s == nil {
		s = NewMeasureScratch()
	}
	if err := cfg.Validate(); err != nil {
		return Measurement{}, err
	}

	// 1. Cycle-accurate steady-state activity of the alternation loop,
	// shared process-wide (ctx bounds only the wait for another
	// caller's simulation of it).
	altSp := mAlternation.Start()
	alt, err := sims.alternation(ctx, mc, k, cfg.WarmupPeriods, cfg.MeasurePeriods)
	altSp.End()
	if err != nil {
		return Measurement{}, err
	}

	// 2. Radiate: per-component coupling at the measurement distance with
	// repetition-specific spatial phases (the Cal seed — one antenna
	// placement per campaign repetition). Only the two shared envelope
	// streams are ever rendered; each group is carried as its pair of
	// complex phase amplitudes, left in s.coeffs.
	//
	// The envelopes are synthesized on canon, the canonical 50/50
	// alternation at the nominal frequency — the one every cell of a
	// campaign row shares. The pair's actual duty cycle d is restored in
	// the coefficients: a duty-d alternation's fundamental is
	// sin(πd)/sin(π/2) times the 50/50 one's, so both phase amplitudes of
	// every group are scaled by emsim.DutyAmplitudeFactor(d), which
	// preserves the measured fundamental-band power while keeping the
	// envelope realization — and therefore its cached spectral products —
	// pair-independent. Droop compensation stays on the pair's achieved
	// period via PhaseAmplitudes.
	radSp := mRadiate.Start()
	if err := s.rad.InitLaw(mc.Sources, cfg.Distance, mc.AsymmetrySourceAmp, law, s.calRng.at(seeds.Cal)); err != nil {
		return Measurement{}, err
	}
	actual := emsim.Alternation{
		Rates:       [2]activity.Vector{alt.PhaseStats[0].MeanRates, alt.PhaseStats[1].MeanRates},
		HalfSeconds: alt.HalfSeconds,
	}
	n := int(cfg.Duration * cfg.SampleRate)
	band := cfg.analysisBand()
	jit := cfg.Jitter
	if jit.AmpNoiseStd == 0 {
		jit.AmpNoiseStd = mc.AmplitudeNoiseStd
	}
	amps, err := s.rad.PhaseAmplitudes(actual, cfg.SampleRate)
	if err != nil {
		return Measurement{}, err
	}
	duty := complex(emsim.DutyAmplitudeFactor(actual.Duty()), 0)
	coeffs := s.coeffs[:0]
	for g := 0; g < emsim.NumGroups; g++ {
		if amps[g][0] != 0 || amps[g][1] != 0 {
			coeffs = append(coeffs, [2]complex128{amps[g][0] * duty, amps[g][1] * duty})
		}
	}
	s.coeffs = coeffs
	canon := emsim.CanonicalTimeline(cfg.Frequency)

	if s.analyzer == nil || s.analyzerCfg != cfg.Analyzer {
		an, err := specan.New(cfg.Analyzer)
		if err != nil {
			return Measurement{}, err
		}
		s.analyzer, s.analyzerCfg = an, cfg.Analyzer
	}
	radSp.End()

	// 3+4. Synthesis and per-segment Welch analysis, fused and cached:
	// a miss streams the envelope pair (skipped when every group is
	// silent, as in the reference pipeline, so a fully silent kernel
	// renders no envelopes) and then the noise stream through the
	// segment walks;
	// a hit reuses the products untouched. Group signals and noise are
	// mutually incoherent: powers add, which is exactly what the
	// frequency-domain combination in Render computes.
	var envP synthProduct
	if len(s.coeffs) > 0 {
		envP, err = product(ctx, cache, &s.envSlot, envKey, func(dst synthProduct) (synthProduct, error) {
			sp := mSynthesize.Start()
			defer sp.End()
			if err := s.envStream.Init(canon, cfg.SampleRate, n, jit, s.envRng.at(seeds.Env)); err != nil {
				return synthProduct{}, err
			}
			v, err := s.analyzer.EnvelopeProductsStream(n, band, &s.envStream, cfg.SampleRate, s.specan, dst.env)
			return synthProduct{env: v}, err
		})
		if err != nil {
			return Measurement{}, err
		}
	}
	noiseP, err := product(ctx, cache, &s.noiseSlot, noiseKey, func(dst synthProduct) (synthProduct, error) {
		sp := mSynthesize.Start()
		defer sp.End()
		if err := s.noiseStream.Init(cfg.Environment, cfg.SampleRate, n, s.noiseRng.at(seeds.Noise)); err != nil {
			return synthProduct{}, err
		}
		v, err := s.analyzer.NoiseProductsStream(n, band, &s.noiseStream, cfg.SampleRate, s.specan, dst.noise)
		return synthProduct{noise: v}, err
	})
	if err != nil {
		return Measurement{}, err
	}

	tr, err := s.analyzer.Render(n, band, s.coeffs, envP.env, noiseP.noise, cfg.SampleRate, s.specan)
	if err != nil {
		return Measurement{}, err
	}
	return finish(k, alt, cfg, tr)
}

// product returns the product for key from the shared cache when there
// is one, and otherwise from slot, which compute refills in place on a
// miss. compute receives the buffers it may overwrite: the slot's, or
// none for the cache, whose published products must never be reused.
func product(ctx context.Context, cache *SynthCache, slot *productSlot, key productKey, compute func(dst synthProduct) (synthProduct, error)) (synthProduct, error) {
	if cache != nil {
		return cache.get(ctx, key, func() (synthProduct, error) { return compute(synthProduct{}) })
	}
	return slot.get(key, compute)
}
