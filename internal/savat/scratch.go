package savat

import (
	"context"
	"math/rand"

	"repro/internal/activity"
	"repro/internal/arena"
	"repro/internal/emsim"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/specan"
	"repro/internal/workpool"
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
// path: the shared envelope streams, the noise capture, the spectrum
// analyzer's working set, the radiator value, the per-stage rngs, and
// the synthesis-product cache that lets cells sharing a stochastic
// realization skip synthesis and Welch analysis entirely. A warmed
// scratch lets the streaming path allocate no sample-sized buffers at
// all. Cycle-accurate alternation results are not per scratch: they
// come from the process-wide simulation cache (see simCache), which
// every scratch shares.
//
// A MeasureScratch is NOT safe for concurrent use; the campaign engine
// gives each worker its own (the workers' scratches then share one
// concurrency-safe SynthCache — see CampaignOptions.SynthCache).
type MeasureScratch struct {
	env    emsim.Envelopes
	noise  []complex128
	coeffs [][2]complex128
	rad    emsim.Radiator
	specan *specan.Scratch
	cache  *SynthCache

	// Per-stage rngs, reseeded from the measurement's SynthSeeds.
	calRng, envRng, noiseRng seededRand

	// Streaming sources, re-initialized per measurement. Only the
	// buffered path (WithBuffered) materializes env and noise above;
	// the streaming path renders through these instead.
	envStream   emsim.EnvelopeStream
	noiseStream noise.Stream

	analyzer    *specan.Analyzer
	analyzerCfg specan.Config

	// mem is the scratch's bump allocator for the shape-dependent
	// working set (see internal/arena); nil means plain heap buffers.
	// prepare resets it — retiring every carved buffer at once — exactly
	// when the measurement shape below changes, which is the one point
	// where no carved buffer of the new shape is live yet (the reset
	// drops s.noise, the one arena-carved buffer this struct itself
	// caches; specan.Scratch tracks the epoch for its own).
	mem      *arena.Arena
	memShape measureShape

	// meas is the scratch-owned Measurement the fast paths return: like
	// the Trace it embeds, it is valid until the scratch's next
	// measurement, and reusing it keeps the steady-state path free of
	// heap allocation.
	meas Measurement
}

// measureShape is everything the sizes of the arena-carved working
// buffers depend on: the capture length (via duration and rate) and the
// segmentation (via the analyzer config). Equal shapes carve equal
// sizes, so the arena never grows between resets.
type measureShape struct {
	n        int
	rate     float64
	analyzer specan.Config
}

// NewMeasureScratch returns an empty scratch; buffers are sized on
// first use.
func NewMeasureScratch() *MeasureScratch {
	return &MeasureScratch{specan: specan.NewScratch()}
}

// SetAnalyzerPool directs the spectrum analyzer's per-segment
// transforms through p instead of the process-default pool. The default
// is right for campaigns — workers and segment transforms share one
// CPU budget — but tests (and callers that know the machine is
// otherwise idle) can hand each scratch an explicit pool to force
// parallel segment transforms regardless of GOMAXPROCS. Results are
// bit-identical either way: segment PSDs are reduced in capture order.
func (s *MeasureScratch) SetAnalyzerPool(p *workpool.Pool) { s.specan.Pool = p }

// SetArena backs the scratch's shape-dependent working buffers — and
// the embedded analyzer scratch's — with a, a single-owner bump
// allocator that must not be shared with any other scratch. A nil a
// restores plain heap buffers. Values are identical either way; the
// arena only changes where the working set lives. The campaign engine
// installs one per worker (see WithArena).
func (s *MeasureScratch) SetArena(a *arena.Arena) {
	s.mem = a
	s.specan.Mem = a
	s.memShape = measureShape{} // force a reset on the next prepare
}

// synthCache returns the scratch's product cache, defaulting to a
// private single-owner one. Campaigns and WithSynthCache install a
// shared concurrency-safe cache instead.
func (s *MeasureScratch) synthCache() *SynthCache {
	if s.cache == nil {
		s.cache = newPrivateSynthCache()
	}
	return s.cache
}

// prepare runs the shared front half of a measurement — validation,
// the shared cycle-accurate alternation (ctx bounds only the wait for
// another caller's simulation of it), radiator calibration (on the
// Cal seed), and the duty-scaled group-coefficient filter (left in
// s.coeffs) — and caches the analyzer. Both the streaming and buffered
// paths start here.
//
// The returned canon timeline is the canonical 50/50 alternation at the
// nominal frequency — the one every cell of a campaign row synthesizes
// its envelopes on. The pair's actual duty cycle d is restored in the
// coefficients: a duty-d alternation's fundamental is sin(πd)/sin(π/2)
// times the 50/50 one's, so both phase amplitudes of every group are
// scaled by emsim.DutyAmplitudeFactor(d), which preserves the measured
// fundamental-band power while keeping the envelope realization — and
// therefore its cached spectral products — pair-independent. Droop
// compensation stays on the pair's achieved period via PhaseAmplitudes.
func (s *MeasureScratch) prepare(ctx context.Context, mc machine.Config, k *Kernel, cfg Config, law emsim.DistanceLaw, seeds SynthSeeds, mo *measureObs) (alt *AlternationResult, canon emsim.Alternation, n int, jit emsim.Jitter, err error) {
	if err = cfg.Validate(); err != nil {
		return nil, canon, 0, jit, err
	}

	// 1. Cycle-accurate steady-state activity of the alternation loop.
	altSp := mo.alternation.Start()
	alt, err = sims.alternation(ctx, mc, k, cfg.WarmupPeriods, cfg.MeasurePeriods, mo)
	altSp.End()
	if err != nil {
		return nil, canon, 0, jit, err
	}

	// 2. Radiate: per-component coupling at the measurement distance with
	// repetition-specific spatial phases (one antenna placement per
	// campaign repetition). Only the two shared envelope streams are ever
	// rendered; each group is carried as its pair of complex phase
	// amplitudes.
	radSp := mo.radiate.Start()
	defer radSp.End()
	if err = s.rad.InitLaw(mc.Sources, cfg.Distance, mc.AsymmetrySourceAmp, law, s.calRng.at(seeds.Cal)); err != nil {
		return nil, canon, 0, jit, err
	}
	actual := emsim.Alternation{
		Rates:       [2]activity.Vector{alt.PhaseStats[0].MeanRates, alt.PhaseStats[1].MeanRates},
		HalfSeconds: alt.HalfSeconds,
	}
	n = int(cfg.Duration * cfg.SampleRate)
	if s.mem != nil {
		if sh := (measureShape{n: n, rate: cfg.SampleRate, analyzer: cfg.Analyzer}); sh != s.memShape {
			// New measurement shape: every arena-backed buffer will be
			// re-carved at its new size, so this is the one safe point to
			// rewind the slabs. Consumers notice through the epoch.
			s.memShape = sh
			s.mem.Reset()
			s.noise = nil
		}
	}
	jit = cfg.Jitter
	if jit.AmpNoiseStd == 0 {
		jit.AmpNoiseStd = mc.AmplitudeNoiseStd
	}
	amps, err := s.rad.PhaseAmplitudes(actual, cfg.SampleRate)
	if err != nil {
		return nil, canon, 0, jit, err
	}
	duty := complex(emsim.DutyAmplitudeFactor(actual.Duty()), 0)
	coeffs := s.coeffs[:0]
	for g := 0; g < emsim.NumGroups; g++ {
		if amps[g][0] != 0 || amps[g][1] != 0 {
			coeffs = append(coeffs, [2]complex128{amps[g][0] * duty, amps[g][1] * duty})
		}
	}
	s.coeffs = coeffs
	canon = emsim.CanonicalTimeline(cfg.Frequency)

	if s.analyzer == nil || s.analyzerCfg != cfg.Analyzer {
		var an *specan.Analyzer
		if an, err = specan.New(cfg.Analyzer); err != nil {
			return nil, canon, 0, jit, err
		}
		s.analyzer, s.analyzerCfg = an, cfg.Analyzer
	}
	return alt, canon, n, jit, nil
}

// finish turns a recorded trace into the Measurement: band power
// around the intended frequency, then energy per A/B instruction pair.
// The result is written into dst when one is supplied (the scratch
// paths pass their scratch-owned Measurement; it shares the Trace's
// valid-until-next-measurement contract) and freshly allocated when
// dst is nil (the reference path, whose results outlive the call).
func finish(k *Kernel, alt *AlternationResult, cfg Config, tr *specan.Trace, dst *Measurement) (*Measurement, error) {
	p, err := tr.BandPower(cfg.Frequency, cfg.BandHalfWidth)
	if err != nil {
		return nil, err
	}
	pairs := alt.PairsPerSecond()
	if dst == nil {
		dst = &Measurement{}
	}
	*dst = Measurement{
		A: k.A, B: k.B,
		SAVAT:           p / pairs,
		BandPower:       p,
		PairsPerSecond:  pairs,
		LoopCount:       k.LoopCount,
		ActualFrequency: alt.ActualFrequency(),
		Trace:           tr,
	}
	return dst, nil
}

// measureKernelStream is the streaming fast path behind the default
// Measurer mode: the envelope and noise spectral products are read
// through the synthesis-product cache — computed, on a miss, by the
// O(segment) streaming renderers (emsim.EnvelopeStream + noise.Stream
// feeding specan's product walks) into cache-owned buffers; skipped
// entirely on a hit — and the cell's trace is assembled by the FFT-free
// specan.Render. Values are bit-identical to measureKernelBuffered
// (the per-segment primitives are shared and the reduction order is
// fixed) and match the reference pipeline within rounding (the
// equivalence tests bound the relative difference by 1e-9).
//
// The returned Measurement's Trace aliases the scratch and is valid
// until the scratch's next measurement; callers that keep traces must
// use distinct scratches. A nil scratch is allowed; a fresh one is
// used.
func measureKernelStream(ctx context.Context, mc machine.Config, k *Kernel, cfg Config, law emsim.DistanceLaw, seeds SynthSeeds, envKey, noiseKey productKey, s *MeasureScratch, mo *measureObs) (*Measurement, error) {
	if s == nil {
		s = NewMeasureScratch()
	}
	alt, canon, n, jit, err := s.prepare(ctx, mc, k, cfg, law, seeds, mo)
	if err != nil {
		return nil, err
	}
	cache := s.synthCache()

	// 3+4. Synthesis and per-segment Welch analysis, fused and cached:
	// a miss streams the envelope pair (guarded exactly like
	// SynthesizeGroups' active check, so a fully silent kernel renders
	// no envelopes) and then the noise stream through the segment walks;
	// a hit reuses the published products untouched. Group signals and
	// noise are mutually incoherent: powers add, which is exactly what
	// the frequency-domain combination in Render computes.
	var env *specan.PairPSD
	if len(s.coeffs) > 0 {
		env, err = cache.envProducts(envKey, func(dst *specan.PairPSD) (*specan.PairPSD, error) {
			sp := mo.synthesize.Start()
			defer sp.End()
			if err := s.envStream.Init(canon, cfg.SampleRate, n, jit, s.envRng.at(seeds.Env)); err != nil {
				return nil, err
			}
			return s.analyzer.EnvelopeProductsStream(n, &s.envStream, cfg.SampleRate, s.specan, dst)
		})
		if err != nil {
			return nil, err
		}
	}
	noisePSD, err := cache.noiseProducts(noiseKey, func(dst []float64) ([]float64, error) {
		sp := mo.synthesize.Start()
		defer sp.End()
		if err := s.noiseStream.Init(cfg.Environment, cfg.SampleRate, n, s.noiseRng.at(seeds.Noise)); err != nil {
			return nil, err
		}
		return s.analyzer.NoiseProductsStream(n, &s.noiseStream, cfg.SampleRate, s.specan, dst)
	})
	if err != nil {
		return nil, err
	}

	tr, err := s.analyzer.Render(n, s.coeffs, env, noisePSD, cfg.SampleRate, s.specan)
	if err != nil {
		return nil, err
	}
	return finish(k, alt, cfg, tr, &s.meas)
}

// measureKernelBuffered is the capture-at-once form of
// measureKernelStream: it always materializes the full envelope and
// noise captures in the scratch (callers that want the rendered
// captures get them even on a cache hit) and reads the spectral
// products through the same cache — computed, on a miss, by the
// buffered Welch passes over those captures. It produces bit-identical
// Measurements to measureKernelStream — the conformance suite asserts
// this — at O(capture) memory; it exists as the plain-shaped oracle for
// the streaming path and for callers that want the captures.
func measureKernelBuffered(ctx context.Context, mc machine.Config, k *Kernel, cfg Config, law emsim.DistanceLaw, seeds SynthSeeds, envKey, noiseKey productKey, s *MeasureScratch, mo *measureObs) (*Measurement, error) {
	if s == nil {
		s = NewMeasureScratch()
	}
	alt, canon, n, jit, err := s.prepare(ctx, mc, k, cfg, law, seeds, mo)
	if err != nil {
		return nil, err
	}
	cache := s.synthCache()

	// 3. Full-capture synthesis: both shared envelope streams, then the
	// environment noise as one more incoherent contribution. Render
	// overwrites the buffers, so the previous cell's capture needs no
	// clear.
	synSp := mo.synthesize.Start()
	var env *specan.PairPSD
	if len(s.coeffs) > 0 {
		if _, err := emsim.SynthesizeEnvelopes(canon, cfg.SampleRate, n, jit, s.envRng.at(seeds.Env), &s.env); err != nil {
			synSp.End()
			return nil, err
		}
	}
	if cap(s.noise) >= n {
		s.noise = s.noise[:n]
	} else {
		s.noise = s.mem.Complexes(n) // nil-safe: heap when no arena
	}
	err = cfg.Environment.Render(s.noise, cfg.SampleRate, s.noiseRng.at(seeds.Noise))
	synSp.End()
	if err != nil {
		return nil, err
	}

	// 4. Buffered spectrum analysis, products read through the cache.
	if len(s.coeffs) > 0 {
		env, err = cache.envProducts(envKey, func(dst *specan.PairPSD) (*specan.PairPSD, error) {
			return s.analyzer.EnvelopeProducts(s.env.A, s.env.B, cfg.SampleRate, s.specan, dst)
		})
		if err != nil {
			return nil, err
		}
	}
	noisePSD, err := cache.noiseProducts(noiseKey, func(dst []float64) ([]float64, error) {
		return s.analyzer.NoiseProducts(s.noise, cfg.SampleRate, s.specan, dst)
	})
	if err != nil {
		return nil, err
	}

	tr, err := s.analyzer.Render(n, s.coeffs, env, noisePSD, cfg.SampleRate, s.specan)
	if err != nil {
		return nil, err
	}
	return finish(k, alt, cfg, tr, &s.meas)
}
