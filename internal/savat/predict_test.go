package savat

import (
	"math/rand"
	"testing"

	"repro/internal/emsim"
	"repro/internal/machine"
	"repro/internal/noise"
)

// quietConfig removes every stochastic stage the analytic prediction
// cannot see: environment noise, drift, and activity fluctuation.
func quietConfig() Config {
	cfg := FastConfig()
	cfg.Environment = noise.Environment{}
	cfg.Jitter = emsim.Jitter{
		// Leave a token frequency offset so the line is not exactly on a
		// bin boundary, as in real captures; it stays inside the band.
		FreqOffset:   0.001,
		AmpNoiseStd:  -1, // sentinel replaced below
		AmpNoiseCorr: 0.99,
	}
	cfg.Analyzer.FloorPSD = 0
	return cfg
}

// The numeric pipeline (synthesis → FFT → PSD → band power → divide)
// must agree with the closed-form square-wave fundamental to within
// windowing losses, across signal magnitudes spanning two orders.
func TestMeasureMatchesAnalyticPrediction(t *testing.T) {
	mc := machine.Core2Duo()
	mc.AmplitudeNoiseStd = 0 // quiet machine for the cross-check
	cfg := quietConfig()
	cfg.Jitter.AmpNoiseStd = 0

	pairs := [][2]Event{
		{ADD, LDM},   // bus-dominated, ≈4 zJ
		{ADD, LDL2},  // L2-dominated
		{ADD, STL2},  // larger L2 signal
		{LDM, LDL2},  // cross-group sum
		{ADD, DIV},   // small divider signal
		{LDL2, STL2}, // small within-group difference
	}
	for _, p := range pairs {
		k, err := BuildKernel(mc, p[0], p[1], cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PredictKernelAt(mc, k, cfg.Distance)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		m, err := NewMeasurer(mc, cfg).MeasureKernel(k, rng)
		if err != nil {
			t.Fatal(err)
		}
		ratio := m.SAVAT / want
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%v/%v: measured %.3g zJ vs analytic %.3g zJ (ratio %.3f)",
				p[0], p[1], m.ZJ(), want*1e21, ratio)
		}
	}
}

// The analytic prediction respects the distance model: predictions at
// 50 cm drop consistently with the coupling tables.
func TestPredictDistanceConsistency(t *testing.T) {
	mc := machine.Core2Duo()
	near, err := Predict(mc, ADD, LDL2, 80e3)
	if err != nil {
		t.Fatal(err)
	}
	far, err := PredictAt(mc, ADD, LDL2, 80e3, 0.50)
	if err != nil {
		t.Fatal(err)
	}
	if far > near/20 {
		t.Errorf("L2 prediction should collapse at 50 cm: %.3g vs %.3g", far, near)
	}
	nearLDM, err := Predict(mc, ADD, LDM, 80e3)
	if err != nil {
		t.Fatal(err)
	}
	farLDM, err := PredictAt(mc, ADD, LDM, 80e3, 0.50)
	if err != nil {
		t.Fatal(err)
	}
	if farLDM < nearLDM/30 {
		t.Errorf("off-chip prediction should persist at 50 cm: %.3g vs %.3g", farLDM, nearLDM)
	}
}

func TestPredictErrors(t *testing.T) {
	if _, err := Predict(machine.Config{}, ADD, LDM, 80e3); err == nil {
		t.Error("bad machine should fail")
	}
	if _, err := PredictAt(machine.Core2Duo(), ADD, LDM, 0, 0.1); err == nil {
		t.Error("zero frequency should fail")
	}
}

// Section VII: the power channel sees the ALU (ADD/MUL gains real signal)
// and is distance-invariant — both in contrast to the EM channel.
func TestPowerChannelSAVAT(t *testing.T) {
	power := machine.Channels()["power"]
	em := machine.Core2Duo()
	pw := power.Apply(em)
	cfg := FastConfig()
	cfg.Environment = power.Environment()

	get := func(mc machine.Config, a, b Event, d float64) float64 {
		c := cfg
		c.Distance = d
		rng := rand.New(rand.NewSource(21))
		m, err := NewMeasurer(mc, c).Measure(a, b, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m.SAVAT
	}
	// ADD/MUL: at the floor on the EM channel, visible on the rail.
	emRatio := get(em, ADD, MUL, 0.10) / get(em, ADD, ADD, 0.10)
	pwRatio := get(pw, ADD, MUL, 0.10) / get(pw, ADD, ADD, 0.10)
	if pwRatio < 1.5*emRatio {
		t.Errorf("power channel should expose ADD/MUL: EM ratio %.2f vs power ratio %.2f",
			emRatio, pwRatio)
	}
	// Distance invariance of the rail measurement.
	near := get(pw, ADD, LDM, 0.10)
	far := get(pw, ADD, LDM, 1.00)
	if r := far / near; r < 0.9 || r > 1.1 {
		t.Errorf("power channel should be distance-invariant: ratio %.3f", r)
	}
}
