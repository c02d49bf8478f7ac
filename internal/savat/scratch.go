package savat

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/activity"
	"repro/internal/emsim"
	"repro/internal/memo"
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
// measurement outside a campaign reuses when its seed repeats and
// recomputes in place otherwise. Every buffer grows on demand and
// is reused by capacity, so a warmed scratch measures without
// allocating unless a measurement outgrows the buffers it already
// holds. Cycle-accurate
// alternation results are not per scratch: they come from the
// process-wide simulation cache (see simCache), which every scratch
// shares.
//
// A MeasureScratch is NOT safe for concurrent use. Each computed
// campaign cell borrows one from a process-wide free list (see
// workerScratches) for its own duration, so a warm process measures
// with its working sets already allocated, and reads its products
// through the process-wide layer (synths) instead of the scratch slots.
type MeasureScratch struct {
	coeffs [][2]complex128
	rad    emsim.Radiator
	specan *specan.Scratch

	// radFrom is what rad was last drawn from, valid when radOK (see
	// radiate).
	radFrom radiatorInputs
	radOK   bool

	// Per-stage rngs, reseeded from the measurement's SynthSeeds.
	calRng, envRng, noiseRng seededRand

	// Streaming sources, re-initialized per measurement.
	envStream   emsim.EnvelopeStream
	noiseStream noise.Stream

	// The last products computed through this scratch outside a
	// campaign, keyed by recipe.
	envSlot, noiseSlot productSlot

	analyzer    *specan.Analyzer
	analyzerCfg specan.Config
}

// NewMeasureScratch returns an empty scratch; buffers are sized on
// first use.
func NewMeasureScratch() *MeasureScratch {
	return &MeasureScratch{specan: specan.NewScratch()}
}

// radiatorInputs are everything a radiator draw reads: the source
// table, distance, asymmetry amplitude and distance law, and the Cal
// seed its gain jitters come from.
type radiatorInputs struct {
	table    emsim.SourceTable
	distance float64
	asym     float64
	law      emsim.DistanceLaw
	seed     int64
}

// radiate initializes the scratch's radiator from in, unless it was
// last drawn from the same inputs, which draw the same gain jitters:
// every cell of a campaign repetition shares one Cal seed, so a
// scratch re-seeds the 607-word math/rand state once per run of
// same-repetition cells rather than once per cell. The Cal rng serves
// only this draw.
func (s *MeasureScratch) radiate(in radiatorInputs) error {
	if s.radOK && s.radFrom == in {
		return nil
	}
	s.radOK = false
	if err := s.rad.InitLaw(in.table, in.distance, in.asym, in.law, s.calRng.at(in.seed)); err != nil {
		return err
	}
	s.radFrom, s.radOK = in, true
	return nil
}

// finish turns a recorded trace into the Measurement: band power
// around the intended frequency, then energy per A/B instruction pair.
// Config.Validate keeps every input in range; a SAVAT that still comes
// out non-finite or non-positive is refused with ErrNonFinite rather
// than returned as a value.
func finish(k *Kernel, alt *AlternationResult, cfg Config, tr *specan.Trace) (Measurement, error) {
	p, err := tr.BandPower(cfg.Frequency, cfg.BandHalfWidth)
	if err != nil {
		return Measurement{}, err
	}
	pairs := alt.PairsPerSecond()
	e := p / pairs
	if !(e > 0) || math.IsInf(e, 1) {
		return Measurement{}, fmt.Errorf("%w: %v/%v measured a SAVAT of %g J", ErrNonFinite, k.A, k.B, e)
	}
	return Measurement{
		A: k.A, B: k.B,
		SAVAT:           e,
		BandPower:       p,
		PairsPerSecond:  pairs,
		LoopCount:       k.LoopCount,
		ActualFrequency: alt.ActualFrequency(),
		Trace:           tr,
	}, nil
}

// measure is the measurement fast path on a resolved setup, inside the
// savat.measure span: the envelope and noise spectral products are read
// through layer — or, when it is nil, the scratch's product slots —
// computed, on a miss, by the O(segment) streaming renderers
// (emsim.EnvelopeStream + noise.Stream feeding specan's product walks);
// skipped entirely on a hit — and the cell's trace is assembled by the
// FFT-free specan.Render. Values match the reference pipeline within
// rounding (the equivalence tests bound the relative difference by
// 1e-9), and the per-segment primitives are bit-identical to specan's
// buffered Welch passes. A product's key is the setup's recipe prefix
// plus the stage seed (see productKey), so the lookup allocates nothing.
//
// s holds the working set for the measurement's duration; the returned
// Measurement's Trace aliases it and is valid until the scratch's next
// measurement, so callers that keep traces must use distinct scratches.
func (su *setup) measure(ctx context.Context, k *Kernel, seeds SynthSeeds, s *MeasureScratch, layer *memo.LRU[productKey, synthProduct]) (Measurement, error) {
	sp := mMeasure.Start()
	defer sp.End()
	mc, cfg := su.mc, su.cfg

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
	if err := s.radiate(radiatorInputs{mc.Sources, cfg.Distance, mc.AsymmetrySourceAmp, su.law, seeds.Cal}); err != nil {
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
		envP, err = product(ctx, layer, &s.envSlot, productKey{su.envKeyPrefix, seeds.Env}, func(dst synthProduct) (synthProduct, error) {
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
	noiseP, err := product(ctx, layer, &s.noiseSlot, productKey{su.noiseKeyPrefix, seeds.Noise}, func(dst synthProduct) (synthProduct, error) {
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
