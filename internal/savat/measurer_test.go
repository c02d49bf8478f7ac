package savat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// equivSpecs is the fixed spec table every Measurer mode is compared
// on: machine, configuration tweaks, event pair, and seed all vary so
// an rng-order or scratch-state divergence cannot hide behind one lucky
// configuration.
func equivSpecs() []struct {
	name  string
	mc    machine.Config
	tweak func(*Config)
	a, b  Event
	seed  int64
} {
	noisy := machine.Core2Duo()
	noisy.AmplitudeNoiseStd = 0.3
	return []struct {
		name  string
		mc    machine.Config
		tweak func(*Config)
		a, b  Event
		seed  int64
	}{
		{"core2duo-default", machine.Core2Duo(), func(c *Config) {}, ADD, LDM, 1},
		{"pentium-50cm", machine.Pentium3M(), func(c *Config) { c.Distance = 0.50 }, LDL2, STL2, 7},
		{"turion-jitter", machine.TurionX2(), func(c *Config) { c.Jitter.FreqOffset = 0.01 }, DIV, ADD, 42},
		{"noisy-diagonal", noisy, func(c *Config) {}, ADD, ADD, 13},
	}
}

func equivConfig(tweak func(*Config)) Config {
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	tweak(&cfg)
	return cfg
}

// identicalMeasurements demands bit-exact agreement — every scalar field
// and every spectrum bin — between two Measurements.
func identicalMeasurements(t *testing.T, name string, a, b Measurement) {
	t.Helper()
	if a.SAVAT != b.SAVAT || a.BandPower != b.BandPower ||
		a.PairsPerSecond != b.PairsPerSecond || a.LoopCount != b.LoopCount ||
		a.ActualFrequency != b.ActualFrequency || a.A != b.A || a.B != b.B {
		t.Errorf("%s: %+v vs %+v", name, a, b)
		return
	}
	pa, pb := a.Trace.Spectrum.PSD, b.Trace.Spectrum.PSD
	if len(pa) != len(pb) {
		t.Errorf("%s: spectrum lengths %d vs %d", name, len(pa), len(pb))
		return
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("%s: spectrum bin %d: %g vs %g", name, i, pa[i], pb[i])
			return
		}
	}
}

// The streaming (default) and buffered Measurer modes must agree with
// each other exactly (the shared-envelope contract), and the reference
// pipeline must agree within 1e-9 relative (it computes the same
// quantity through per-group Welch passes).
func TestMeasurerModeAgreement(t *testing.T) {
	for _, s := range equivSpecs() {
		cfg := equivConfig(s.tweak)
		k, err := BuildKernel(s.mc, s.a, s.b, cfg.Frequency)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		stream, err := NewMeasurer(s.mc, cfg).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		buffered, err := NewMeasurer(s.mc, cfg, WithBuffered()).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, s.name+"/stream-vs-buffered", stream, buffered)

		ref, err := NewMeasurer(s.mc, cfg, WithReference()).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(stream.SAVAT-ref.SAVAT) / math.Abs(ref.SAVAT); rel > 1e-9 {
			t.Errorf("%s: stream %g vs reference %g (rel %g)", s.name, stream.SAVAT, ref.SAVAT, rel)
		}
	}
}

// An explicit WithScratch — fresh, or warmed by a previous measurement —
// must never change a value relative to the Measurer's implicit private
// scratch: scratch state is an optimization carrier only.
func TestMeasurerScratchInvariance(t *testing.T) {
	for _, s := range equivSpecs() {
		cfg := equivConfig(s.tweak)
		k, err := BuildKernel(s.mc, s.a, s.b, cfg.Frequency)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		implicit, err := NewMeasurer(s.mc, cfg).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := NewMeasurer(s.mc, cfg, WithScratch(NewMeasureScratch())).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, s.name+"/implicit-vs-explicit-scratch", implicit, explicit)

		// Warm a shared scratch with an unrelated measurement, then
		// re-measure: the warmed result must stay bit-identical. The Trace
		// aliases the scratch, so the comparison happens before any
		// further measurement on it.
		warm := NewMeasurer(s.mc, cfg, WithScratch(NewMeasureScratch()))
		if _, err := warm.Measure(MUL, SUB, rand.New(rand.NewSource(99))); err != nil {
			t.Fatal(err)
		}
		warmed, err := warm.MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, s.name+"/warmed-scratch", implicit, warmed)
	}
}

// MeasurePair must reproduce per-repetition MeasureKernel calls with
// the campaign's deterministic cell seeding — the contract that makes
// its values exactly equal to campaign cells for the same seed — and
// scratch reuse across repetitions inside one Measurer must not perturb
// any of them.
func TestMeasurePairMatchesCellSeeding(t *testing.T) {
	for _, s := range equivSpecs() {
		cfg := equivConfig(s.tweak)
		vals, sum, err := NewMeasurer(s.mc, cfg).MeasurePair(s.a, s.b, 3, s.seed)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(vals) != 3 {
			t.Fatalf("%s: %d values", s.name, len(vals))
		}
		k, err := BuildKernel(s.mc, s.a, s.b, cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		for r := range vals {
			m, err := NewMeasurer(s.mc, cfg).MeasureKernelSeeds(k, CampaignSeeds(s.seed, s.a, r))
			if err != nil {
				t.Fatal(err)
			}
			if m.SAVAT != vals[r] {
				t.Errorf("%s: repetition %d: MeasurePair %g vs MeasureKernel %g", s.name, r, vals[r], m.SAVAT)
			}
		}
		if sum.N != 3 {
			t.Errorf("%s: summary %+v", s.name, sum)
		}
	}
}

// A Measurement is a value: the next measurement on the same Measurer
// (same scratch) leaves every scalar of the previous one as an
// independent Measurer computes it.
func TestMeasurementOutlivesNextMeasure(t *testing.T) {
	mc, cfg := machine.Core2Duo(), FastConfig()
	m := NewMeasurer(mc, cfg)
	first, err := m.Measure(LDM, ADD, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Measure(ADD, ADD, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	want, err := NewMeasurer(mc, cfg).Measure(LDM, ADD, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	first.Trace, want.Trace = nil, nil // the one field that aliases the scratch
	if first != want {
		t.Errorf("first measurement after a second: %+v, want %+v", first, want)
	}
}
