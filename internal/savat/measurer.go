package savat

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/counter"
	"repro/internal/emsim"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Measurer is the single entry point to the SAVAT measurement
// pipeline: one machine and measurement configuration, bound at
// construction, measured through the streaming fast path — or, with
// WithReference, through the reference pipeline that is its oracle.
// The zero option set is the right choice almost always — the
// streaming fast path on a Measurer-owned scratch:
//
//	m := savat.NewMeasurer(mc, cfg)
//	meas, err := m.Measure(savat.ADD, savat.SUB, rng)
//
// Options:
//
//	WithScratch(s)     reuse the caller's MeasureScratch across Measurers
//	WithReference()    direct-rendering reference pipeline
//	WithSynthCache(c)  shared synthesis-product cache (campaign row reuse)
//
// Without WithSynthCache, the scratch keeps the last envelope and noise
// products, so a repeated seed skips synthesis and a new one
// recomputes them in place.
//
// Measurements are returned by value, so their scalars outlive later
// calls. A Measurer reuses one scratch across its measurements, though,
// so a returned Measurement's Trace aliases that scratch and is valid
// only until the Measurer's next measurement; callers that keep traces
// use one Measurer per retained trace. A Measurer is NOT safe for
// concurrent use — the campaign engine gives each worker its own.
type Measurer struct {
	mc        machine.Config
	cfg       Config
	reference bool // WithReference: the oracle instead of the fast path
	scratch   *MeasureScratch
	cache     *SynthCache

	// Effective measurement setup, resolved lazily on first measurement
	// (NewMeasurer deliberately cannot fail): the configured channel's
	// Apply over mc, the countermeasure chain's model-side effects over
	// cfg, and the channel's distance law. For the "em" channel with an
	// empty chain the effective setup IS (mc, cfg) value-for-value, which
	// is what keeps the redesigned seam bit-identical to the old
	// pipeline.
	resolved bool
	effMC    machine.Config
	effCfg   Config
	effLaw   emsim.DistanceLaw
	effErr   error
	// chainKey is the countermeasure chain's canonical text when it
	// rewrites the program ("" otherwise): the part of a kernel's
	// simulation-cache key the chain contributes.
	chainKey string

	// Synthesis-product cache key prefixes: every key parameter except
	// the stage seed is fixed by the effective (mc, cfg), so the
	// prefixes are built once and per-measurement keys are
	// allocation-free structs.
	envKeyPrefix, noiseKeyPrefix string
}

// MeasureOption configures a Measurer at construction.
type MeasureOption func(*Measurer)

// WithScratch makes the Measurer measure through the caller's scratch
// instead of owning a fresh one, sharing its buffers, FFT plans, and
// product slots with whatever else uses it. A nil scratch is allowed
// and equivalent to omitting the option.
func WithScratch(s *MeasureScratch) MeasureOption {
	return func(m *Measurer) { m.scratch = s }
}

// WithReference selects the direct-rendering reference pipeline: every
// coherence group synthesized in the time domain and analyzed with its
// own Welch pass. It consumes the same rng draws as the fast paths and
// agrees with them within 1e-9 relative.
func WithReference() MeasureOption {
	return func(m *Measurer) { m.reference = true }
}

// WithSynthCache makes the Measurer read envelope and noise spectral
// products through c — a concurrency-safe cache from NewSynthCache,
// typically shared by many Measurers — instead of the scratch's
// one-entry product slots. Campaign workers share one cache this way
// so an entire matrix row reuses its row event's envelope products
// (see CampaignSeeds). A nil cache is equivalent to omitting the option.
// The cache never influences values: hits are bit-identical to the
// computation they replace.
func WithSynthCache(c *SynthCache) MeasureOption {
	return func(m *Measurer) { m.cache = c }
}

// NewMeasurer binds a machine and measurement configuration and
// applies the options. Configuration problems surface on the first
// measurement (wrapped sentinel errors — see Config.Validate), not here.
func NewMeasurer(mc machine.Config, cfg Config, opts ...MeasureOption) *Measurer {
	m := &Measurer{mc: mc, cfg: cfg}
	for _, o := range opts {
		o(m)
	}
	if m.scratch == nil && !m.reference {
		m.scratch = NewMeasureScratch()
	}
	return m
}

// resolve derives the effective measurement setup once: the channel's
// source-table rewrite and distance law, then the countermeasure
// chain's model-side effects (supply filters on the conducted
// couplings, noise generators on the environment, run-time timing
// randomness on the jitter). Configuration problems surface here as
// the same wrapped sentinels Config.Validate reports; the machine is
// validated here too, once, because the shared simulation cache keys
// on its simulation inputs only.
func (m *Measurer) resolve() (machine.Config, Config, emsim.DistanceLaw, error) {
	if !m.resolved {
		m.resolved = true
		ch, chErr := machine.ChannelByName(m.cfg.Channel)
		if err := m.mc.Validate(); err != nil {
			m.effErr = err
		} else if chErr != nil {
			m.effErr = fmt.Errorf("%w: %q (have %v)", ErrUnknownChannel, m.cfg.Channel, machine.ChannelNames())
		} else if err := m.cfg.Countermeasures.Validate(); err != nil {
			m.effErr = fmt.Errorf("%w: %v", ErrBadCountermeasure, err)
		} else {
			chain := m.cfg.Countermeasures
			m.effMC = ch.Apply(m.mc)
			m.effMC.Sources = counter.ApplySources(m.effMC.Sources, chain, m.cfg.Frequency)
			m.effCfg = m.cfg
			m.effCfg.Environment = counter.ApplyEnvironment(m.cfg.Environment, chain)
			m.effCfg.Jitter = counter.ApplyJitter(m.cfg.Jitter, chain)
			m.effLaw = ch.Law()
			if chain.HasProgram() {
				m.chainKey = chain.String()
			}
		}
	}
	return m.effMC, m.effCfg, m.effLaw, m.effErr
}

// Measure runs the complete pipeline for one event pair: the
// calibrated kernel, the chain's program countermeasures (seeded from
// rng — drawn only when the chain rewrites the program, so
// countermeasure-free measurements consume exactly the
// pre-countermeasure rng stream), and then MeasureKernel. The kernel
// comes from the process-wide simulation cache, so a pair is calibrated
// once per process however many Measurers measure it. The rng drives
// every stochastic stage, so a fixed seed reproduces the measurement
// exactly.
func (m *Measurer) Measure(a, b Event, rng *rand.Rand) (Measurement, error) {
	if rng == nil {
		return Measurement{}, fmt.Errorf("savat: nil rng")
	}
	var seed int64
	if m.cfg.Countermeasures.HasProgram() {
		seed = rng.Int63()
	}
	k, err := m.Kernel(context.Background(), a, b, seed)
	if err != nil {
		return Measurement{}, err
	}
	return m.MeasureKernel(k, rng)
}

// Kernel returns the pair's calibrated kernel — with the chain's
// program countermeasures applied under seed when it has any — from
// the process-wide simulation cache, inside the savat.stage.kernel
// span: the kernel the Measurer measures for the pair. MeasurePair and
// campaign cells pass CounterSeed(campaign seed, a, b); Measure draws
// seed from its rng. ctx bounds only the wait for another caller's
// calibration.
func (m *Measurer) Kernel(ctx context.Context, a, b Event, seed int64) (*Kernel, error) {
	if _, _, _, err := m.resolve(); err != nil {
		return nil, err
	}
	return sims.kernel(ctx, m.mc, a, b, m.cfg.Frequency, m.cfg.Countermeasures, m.chainKey, seed)
}

// MeasureKernel measures a prebuilt kernel, avoiding re-calibration
// across repetitions. The per-stage seeds are drawn from rng, so a
// fixed rng state reproduces the measurement exactly — and every
// pipeline implementation derives the identical seeds from the
// identical rng, which is what the conformance differentials rely on.
func (m *Measurer) MeasureKernel(k *Kernel, rng *rand.Rand) (Measurement, error) {
	if rng == nil {
		return Measurement{}, fmt.Errorf("savat: nil rng")
	}
	return m.MeasureKernelSeeds(k, seedsFromRNG(rng))
}

// productKeys derives the synthesis-product cache keys for one
// measurement: the (mc, cfg)-fixed prefix — built once per Measurer —
// plus the stage seed. Two measurements share a key exactly when their
// products are bit-identical by construction: same seed, same
// synthesis parameters (nominal frequency, sample rate, capture
// length, resolved jitter, noise environment), same segmentation
// parameters (RBW request, window) and same analyzed band. The
// instrument floor and the group coefficients are excluded — products
// are computed upstream of both.
// The keys are comparable structs around the interned prefix, so the
// steady-state measurement path allocates nothing here; map equality
// compares prefix content, so equal recipes hit across Measurers.
func (m *Measurer) productKeys(seeds SynthSeeds) (envKey, noiseKey productKey) {
	if m.envKeyPrefix == "" {
		// The prefixes describe the EFFECTIVE setup: a countermeasure
		// that changes the jitter or the noise environment must not hit
		// the products of the unprotected recipe. resolve has already run
		// on every path that reaches here.
		mc, cfg, _, _ := m.resolve()
		jit := cfg.Jitter
		if jit.AmpNoiseStd == 0 {
			jit.AmpNoiseStd = mc.AmplitudeNoiseStd
		}
		n := int(cfg.Duration * cfg.SampleRate)
		band := cfg.analysisBand()
		m.envKeyPrefix = fmt.Sprintf("env|f0=%g|fs=%g|n=%d|jit=%+v|rbw=%g|win=%v|band=%g-%g",
			cfg.Frequency, cfg.SampleRate, n, jit, cfg.Analyzer.RBW, cfg.Analyzer.Window, band.Lo, band.Hi)
		m.noiseKeyPrefix = fmt.Sprintf("noise|env=%+v|fs=%g|n=%d|rbw=%g|win=%v|band=%g-%g",
			cfg.Environment, cfg.SampleRate, n, cfg.Analyzer.RBW, cfg.Analyzer.Window, band.Lo, band.Hi)
	}
	return productKey{prefix: m.envKeyPrefix, seed: seeds.Env},
		productKey{prefix: m.noiseKeyPrefix, seed: seeds.Noise}
}

// MeasureKernelSeeds measures a prebuilt kernel from explicit per-stage
// seeds — the campaign entry point, where CampaignSeeds' scoping makes
// row-mates share envelope products and repetition-mates share noise
// products through the synthesis cache. The selected pipeline
// implementation runs inside the savat.measure span.
func (m *Measurer) MeasureKernelSeeds(k *Kernel, seeds SynthSeeds) (Measurement, error) {
	return m.measureKernelSeeds(context.Background(), k, seeds)
}

// measureKernelSeeds is MeasureKernelSeeds under a caller context — the
// campaign cell's — which bounds the wait for a shared alternation
// another worker is simulating.
func (m *Measurer) measureKernelSeeds(ctx context.Context, k *Kernel, seeds SynthSeeds) (Measurement, error) {
	sp := mMeasure.Start()
	defer sp.End()
	mc, cfg, law, err := m.resolve()
	if err != nil {
		return Measurement{}, err
	}
	if m.reference {
		return measureKernelReference(mc, k, cfg, law, seeds)
	}
	envKey, noiseKey := m.productKeys(seeds)
	return measureKernelStream(ctx, mc, k, cfg, law, seeds, envKey, noiseKey, m.scratch, m.cache)
}

// MeasurePair measures one event pair `repeats` times with the
// campaign's deterministic per-repetition seeding, returning the
// per-repetition SAVAT values and their summary. Values agree exactly
// with the corresponding campaign cells for the same seed.
func (m *Measurer) MeasurePair(a, b Event, repeats int, seed int64) ([]float64, stats.Summary, error) {
	if err := validateRepeats(repeats); err != nil {
		return nil, stats.Summary{}, err
	}
	k, err := m.Kernel(context.Background(), a, b, CounterSeed(seed, a, b))
	if err != nil {
		return nil, stats.Summary{}, err
	}
	vals := make([]float64, repeats)
	for r := range vals {
		meas, err := m.MeasureKernelSeeds(k, CampaignSeeds(seed, a, r))
		if err != nil {
			return nil, stats.Summary{}, err
		}
		vals[r] = meas.SAVAT
	}
	return vals, stats.Summarize(vals), nil
}
