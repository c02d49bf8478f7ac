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
//	seq, err := m.MeasureSequence(savat.Sequence{savat.LDM, savat.ADD}, savat.Sequence{savat.ADD, savat.ADD}, rng)
//
// Options:
//
//	WithScratch(s)   reuse the caller's MeasureScratch across Measurers
//	WithReference()  direct-rendering reference pipeline
//
// The scratch keeps the last envelope and noise products, so a repeated
// seed skips synthesis and a new one recomputes them in place. Campaign
// cells do not measure through a Measurer: they share every product
// through the process-wide layer (synths) instead.
//
// Measurements are returned by value, so their scalars outlive later
// calls. A Measurer reuses one scratch across its measurements, though,
// so a returned Measurement's Trace aliases that scratch and is valid
// only until the Measurer's next measurement; callers that keep traces
// use one Measurer per retained trace. A Measurer is NOT safe for
// concurrent use.
type Measurer struct {
	cfg       Config
	reference bool // WithReference: the oracle instead of the fast path
	scratch   *MeasureScratch

	// su is the effective setup NewMeasurer resolved; err, the problem
	// resolving it, is every measurement's error (NewMeasurer
	// deliberately cannot fail).
	su  setup
	err error
}

// setup is the effective measurement setup of one (machine,
// configuration): the configured channel's Apply over the machine, the
// countermeasure chain's model-side effects over the configuration,
// and the channel's distance law. For the "em" channel with an empty
// chain the effective setup IS (mc, cfg) value-for-value, which is what
// keeps the channel seam bit-identical to the pipeline before it.
// resolveSetup derives it once per Measurer or campaign; afterwards it
// is read-only, so a campaign's cells share one.
type setup struct {
	base machine.Config // the machine as given: the simulation inputs kernels are cached on
	mc   machine.Config
	cfg  Config
	law  emsim.DistanceLaw
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

// NewMeasurer binds a machine and measurement configuration and
// applies the options. Configuration problems surface on the first
// measurement (wrapped sentinel errors — see Config.Validate), not here.
func NewMeasurer(mc machine.Config, cfg Config, opts ...MeasureOption) *Measurer {
	m := &Measurer{cfg: cfg}
	for _, o := range opts {
		o(m)
	}
	if m.scratch == nil && !m.reference {
		m.scratch = NewMeasureScratch()
	}
	m.su, m.err = resolveSetup(mc, cfg)
	return m
}

// resolveSetup derives the effective measurement setup: the channel's
// source-table rewrite and distance law, then the countermeasure
// chain's model-side effects (supply filters on the conducted
// couplings, noise generators on the environment, run-time timing
// randomness on the jitter). It is the one validation of a
// measurement: the machine — once, because the shared simulation cache
// keys on its simulation inputs only — then the configuration as
// given, which vouches for the channel and chain the derivation reads,
// then the effective configuration every measurement runs; problems
// surface as Config.Validate's wrapped sentinels.
func resolveSetup(mc machine.Config, cfg Config) (setup, error) {
	if err := mc.Validate(); err != nil {
		return setup{}, err
	}
	if err := cfg.Validate(); err != nil {
		return setup{}, err
	}
	ch, _ := machine.ChannelByName(cfg.Channel) // validated above
	chain := cfg.Countermeasures
	su := setup{base: mc, mc: ch.Apply(mc), cfg: cfg, law: ch.Law()}
	su.mc.Sources = counter.ApplySources(su.mc.Sources, chain, cfg.Frequency)
	su.cfg.Environment = counter.ApplyEnvironment(cfg.Environment, chain)
	su.cfg.Jitter = counter.ApplyJitter(cfg.Jitter, chain)
	if chain.HasProgram() {
		su.chainKey = chain.String()
	}
	if err := su.cfg.Validate(); err != nil {
		return setup{}, err
	}

	// The product key prefixes describe the EFFECTIVE setup: a
	// countermeasure that changes the jitter or the noise environment
	// must not hit the products of the unprotected recipe.
	c := su.cfg
	jit := c.Jitter
	if jit.AmpNoiseStd == 0 {
		jit.AmpNoiseStd = su.mc.AmplitudeNoiseStd
	}
	n := int(c.Duration * c.SampleRate)
	band := c.analysisBand()
	su.envKeyPrefix = fmt.Sprintf("env|f0=%g|fs=%g|n=%d|jit=%+v|rbw=%g|win=%v|band=%g-%g",
		c.Frequency, c.SampleRate, n, jit, c.Analyzer.RBW, c.Analyzer.Window, band.Lo, band.Hi)
	su.noiseKeyPrefix = fmt.Sprintf("noise|env=%+v|fs=%g|n=%d|rbw=%g|win=%v|band=%g-%g",
		c.Environment, c.SampleRate, n, c.Analyzer.RBW, c.Analyzer.Window, band.Lo, band.Hi)
	return su, nil
}

// Measure runs the complete pipeline for one event pair: the
// one-event case of MeasureSequence.
func (m *Measurer) Measure(a, b Event, rng *rand.Rand) (Measurement, error) {
	return m.MeasureSequence(Sequence{a}, Sequence{b}, rng)
}

// MeasureSequence runs the complete pipeline for two instruction
// sequences, the paper's Section III "entire sequences as A/B
// activity": the calibrated kernel with sequence a in one half and b in
// the other, the chain's program countermeasures (seeded from rng —
// drawn only when the chain rewrites the program, so
// countermeasure-free measurements consume exactly the
// pre-countermeasure rng stream), and then MeasureKernel. The kernel
// comes from the process-wide simulation cache, so a pair of sequences
// is calibrated once per process however many Measurers measure it. The
// rng drives every stochastic stage, so a fixed seed reproduces the
// measurement exactly.
func (m *Measurer) MeasureSequence(a, b Sequence, rng *rand.Rand) (Measurement, error) {
	if rng == nil {
		return Measurement{}, fmt.Errorf("savat: nil rng")
	}
	if m.err != nil {
		return Measurement{}, m.err
	}
	ha, err := halfOf(a)
	if err != nil {
		return Measurement{}, err
	}
	hb, err := halfOf(b)
	if err != nil {
		return Measurement{}, err
	}
	var seed int64
	if m.cfg.Countermeasures.HasProgram() {
		seed = rng.Int63()
	}
	k, err := m.su.kernel(context.Background(), ha, hb, seed)
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
	if m.err != nil {
		return nil, m.err
	}
	return m.su.kernel(ctx, one(a), one(b), seed)
}

// kernel returns the kernel for halves a and b from the process-wide
// simulation cache on a resolved setup.
func (su *setup) kernel(ctx context.Context, a, b half, seed int64) (*Kernel, error) {
	return sims.kernel(ctx, su.base, a, b, su.cfg.Frequency, su.cfg.Countermeasures, su.chainKey, seed)
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

// MeasureKernelSeeds measures a prebuilt kernel from explicit per-stage
// seeds — the seeds a campaign cell uses (see CampaignSeeds), so the
// result equals that cell's exactly. The selected pipeline
// implementation runs inside the savat.measure span.
func (m *Measurer) MeasureKernelSeeds(k *Kernel, seeds SynthSeeds) (Measurement, error) {
	if m.err != nil {
		return Measurement{}, m.err
	}
	if m.reference {
		sp := mMeasure.Start()
		defer sp.End()
		return measureKernelReference(m.su.mc, k, m.su.cfg, m.su.law, seeds)
	}
	return m.su.measure(context.Background(), k, seeds, m.scratch, nil)
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
