package emsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/activity"
)

func simpleTable() SourceTable {
	t := NewSourceTable()
	t[activity.ALU].Near = 1e-10
	t[activity.Bus].Near = 1e-10
	t[activity.Bus].Far = 2e-10
	t[activity.Bus].Diffuse = 5e-11
	return t
}

func TestCouplingAt(t *testing.T) {
	s := Source{Near: 8, Far: 4, Diffuse: 2}
	if got := s.CouplingAt(RefDistance); math.Abs(got-14) > 1e-12 {
		t.Errorf("coupling at ref = %v, want 14", got)
	}
	// At 2× distance: near/8 + far/2 + diffuse = 1 + 2 + 2 = 5.
	if got := s.CouplingAt(2 * RefDistance); math.Abs(got-5) > 1e-12 {
		t.Errorf("coupling at 2×ref = %v, want 5", got)
	}
	// Monotone decreasing in distance.
	prev := math.Inf(1)
	for _, d := range []float64{0.05, 0.1, 0.5, 1.0, 2.0} {
		k := s.CouplingAt(d)
		if k >= prev {
			t.Errorf("coupling not decreasing at %v m", d)
		}
		prev = k
	}
	// Diffuse floor survives at large distance.
	if got := s.CouplingAt(100); got < 2 {
		t.Errorf("diffuse floor lost: %v", got)
	}
}

func TestCouplingPanicsOnBadDistance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CouplingAt(0) should panic")
		}
	}()
	Source{}.CouplingAt(0)
}

func TestTableValidate(t *testing.T) {
	if err := simpleTable().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := simpleTable()
	bad[activity.L2].Near = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative coupling should fail")
	}
	bad = simpleTable()
	bad[activity.L2].Group = NumGroups
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range group should fail")
	}
}

func TestDefaultGroups(t *testing.T) {
	if DefaultGroup(activity.Bus) != GroupOffchip || DefaultGroup(activity.DRAM) != GroupOffchip {
		t.Error("bus and DRAM must share the off-chip coherence group")
	}
	if DefaultGroup(activity.L2) != GroupL2 {
		t.Error("L2 must be its own group")
	}
	if DefaultGroup(activity.Div) != GroupDiv {
		t.Error("divider must be its own group")
	}
	for _, c := range []activity.Component{activity.Fetch, activity.ALU, activity.Mul, activity.Branch, activity.L1D} {
		if DefaultGroup(c) != GroupCore {
			t.Errorf("%v should be in the core group", c)
		}
	}
	groups := map[int]bool{}
	tbl := NewSourceTable()
	for _, c := range activity.Components() {
		g := tbl[c].Group
		if g != DefaultGroup(c) {
			t.Errorf("NewSourceTable group for %v = %d, want %d", c, g, DefaultGroup(c))
		}
		if tbl[c].Angle != DefaultAngle(c) {
			t.Errorf("NewSourceTable angle for %v = %v", c, tbl[c].Angle)
		}
		groups[g] = true
	}
	if len(groups) != NumGroups {
		t.Errorf("expected all %d groups used, got %d", NumGroups, len(groups))
	}
}

func TestDefaultAnglePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DefaultAngle on invalid component should panic")
		}
	}()
	DefaultAngle(activity.Component(99))
}

// A machine-specific layout can place the divider in the off-chip group at
// a small angle, making DIV and LDM signatures nearly cancel (the paper's
// Turion Figure 14 anomaly).
func TestMachineSpecificDivGroup(t *testing.T) {
	tbl := NewSourceTable()
	tbl[activity.Div].Near = 1e-10
	tbl[activity.Bus].Near = 1e-10
	tbl[activity.Div].Group = GroupOffchip
	tbl[activity.Div].Angle = 0.3
	tbl[activity.Bus].Angle = 0
	rng := rand.New(rand.NewSource(9))
	r, err := NewRadiator(tbl, RefDistance, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	var divRates, busRates activity.Vector
	divRates.Add(activity.Div, 1e6)
	busRates.Add(activity.Bus, 1e6)
	aDiv := r.GroupAmplitude(divRates, 0, GroupOffchip)
	aBus := r.GroupAmplitude(busRates, 1, GroupOffchip)
	diff := cmplx.Abs(aDiv - aBus)
	if diff > 0.4*cmplx.Abs(aBus) {
		t.Errorf("co-located div/bus should nearly cancel: |diff| = %v vs |bus| = %v", diff, cmplx.Abs(aBus))
	}
	if got := r.GroupAmplitude(divRates, 0, GroupDiv); got != 0 {
		t.Errorf("reassigned divider should not radiate in GroupDiv: %v", got)
	}
}

func TestAlternationValidate(t *testing.T) {
	good := Alternation{HalfSeconds: [2]float64{1e-5, 1e-5}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Period() != 2e-5 {
		t.Errorf("Period = %v", good.Period())
	}
	bad := Alternation{HalfSeconds: [2]float64{0, 1e-5}}
	if err := bad.Validate(); err == nil {
		t.Error("zero half duration should fail")
	}
	bad = good
	bad.Rates[0][activity.ALU] = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN rate should fail")
	}
	bad = good
	bad.Rates[1][activity.Bus] = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestNewRadiatorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewRadiator(simpleTable(), 0, 0, rng); err == nil {
		t.Error("zero distance should fail")
	}
	if _, err := NewRadiator(simpleTable(), 0.1, -1, rng); err == nil {
		t.Error("negative asymmetry should fail")
	}
	bad := simpleTable()
	bad[0].Far = -1
	if _, err := NewRadiator(bad, 0.1, 0, rng); err == nil {
		t.Error("bad table should fail")
	}
}

func TestGroupAmplitudeScalesWithSqrtRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r, err := NewRadiator(simpleTable(), RefDistance, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v4 activity.Vector
	v1.Add(activity.Bus, 1e6)
	v4.Add(activity.Bus, 4e6)
	a1 := cmplx.Abs(r.GroupAmplitude(v1, 1, GroupOffchip))
	a4 := cmplx.Abs(r.GroupAmplitude(v4, 1, GroupOffchip))
	if math.Abs(a4/a1-2) > 1e-9 {
		t.Errorf("4× rate should give 2× amplitude: %v vs %v", a4, a1)
	}
	// The bus signal must not leak into other groups.
	if got := cmplx.Abs(r.GroupAmplitude(v1, 1, GroupCore)); got != 0 {
		t.Errorf("bus activity leaked into core group: %v", got)
	}
}

func TestGainJitterIsSmallAndCampaignSpecific(t *testing.T) {
	var v activity.Vector
	v.Add(activity.Bus, 1e6)
	amps := make([]float64, 6)
	for i := range amps {
		rng := rand.New(rand.NewSource(int64(10 + i)))
		r, err := NewRadiator(simpleTable(), RefDistance, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		amps[i] = cmplx.Abs(r.GroupAmplitude(v, 1, GroupOffchip))
	}
	base := simpleTable()[activity.Bus].CouplingAt(RefDistance) * 1e3
	varies := false
	for _, a := range amps {
		if math.Abs(a-base)/base > 5*GainJitterStd {
			t.Errorf("gain jitter too large: %v vs %v", a, base)
		}
		if a != amps[0] {
			varies = true
		}
	}
	if !varies {
		t.Error("gain jitter should vary across campaigns")
	}
}

func TestAsymmetryOnlyInPhaseA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, err := NewRadiator(simpleTable(), RefDistance, 1e-7, rng)
	if err != nil {
		t.Fatal(err)
	}
	var zero activity.Vector
	a0 := cmplx.Abs(r.GroupAmplitude(zero, 0, GroupCore))
	a1 := cmplx.Abs(r.GroupAmplitude(zero, 1, GroupCore))
	if math.Abs(a0-1e-7) > 0.1*1e-7 {
		t.Errorf("phase A asymmetry amplitude = %v, want ≈1e-7", a0)
	}
	if a1 != 0 {
		t.Errorf("phase B should have no asymmetry: %v", a1)
	}
	// Asymmetry decays as near-field: 1/8 at 2× distance.
	far, err := NewRadiator(simpleTable(), 2*RefDistance, 1e-7, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := cmplx.Abs(far.GroupAmplitude(zero, 0, GroupCore)); math.Abs(got-1.25e-8) > 0.1*1.25e-8 {
		t.Errorf("asymmetry at 2×ref = %v, want ≈1.25e-8", got)
	}
	// It must not appear in other groups.
	if got := cmplx.Abs(r.GroupAmplitude(zero, 0, GroupOffchip)); got != 0 {
		t.Errorf("asymmetry leaked into off-chip group: %v", got)
	}
}

// Within a group, components add coherently with fixed angles: bus and
// DRAM at similar angles reinforce rather than cancel.
func TestWithinGroupCoherent(t *testing.T) {
	tbl := NewSourceTable()
	tbl[activity.Bus].Near = 1e-10
	tbl[activity.DRAM].Near = 1e-10
	rng := rand.New(rand.NewSource(4))
	r, err := NewRadiator(tbl, RefDistance, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	var both, busOnly activity.Vector
	both.Add(activity.Bus, 1e6)
	both.Add(activity.DRAM, 1e6)
	busOnly.Add(activity.Bus, 1e6)
	ab := cmplx.Abs(r.GroupAmplitude(both, 1, GroupOffchip))
	a1 := cmplx.Abs(r.GroupAmplitude(busOnly, 1, GroupOffchip))
	// Coherent sum at 0 and 0.7 rad: |1 + e^{i0.7}| ≈ 1.88, well above the
	// incoherent √2 ≈ 1.41.
	if ab/a1 < 1.6 {
		t.Errorf("bus+DRAM should add nearly coherently: ratio %v", ab/a1)
	}
}

func altFor(test *testing.T, rateA, rateB float64) Alternation {
	test.Helper()
	var a Alternation
	a.Rates[0].Add(activity.Bus, rateA)
	a.Rates[1].Add(activity.Bus, rateB)
	a.HalfSeconds = [2]float64{6.25e-6, 6.25e-6} // 80 kHz alternation
	return a
}

// coherentSum renders the coherent sum of every coherence group's
// baseband stream from the shared envelope pair: sample m is
// Σ_g amps[g][0]·A[m] + amps[g][1]·B[m] with the radiator's phase
// amplitudes.
func coherentSum(t *testing.T, r *Radiator, alt Alternation, fs float64, n int, jit Jitter, rng *rand.Rand) []complex128 {
	t.Helper()
	amps, err := r.PhaseAmplitudes(alt, fs)
	if err != nil {
		t.Fatal(err)
	}
	env, err := SynthesizeEnvelopes(alt, fs, n, jit, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b complex128
	for g := range amps {
		a += amps[g][0]
		b += amps[g][1]
	}
	x := make([]complex128, n)
	for m := range x {
		x[m] = a*complex(env.A[m], 0) + b*complex(env.B[m], 0)
	}
	return x
}

// Groups with no coupled activity get zero phase amplitudes, so the
// measurement pipelines render no stream for them.
func TestPhaseAmplitudesZeroForSilentGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r, err := NewRadiator(simpleTable(), RefDistance, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	alt := altFor(t, 1e6, 4e6) // bus only
	amps, err := r.PhaseAmplitudes(alt, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	if amps[GroupOffchip] == [2]complex128{} {
		t.Error("off-chip group should radiate")
	}
	for _, g := range []int{GroupCore, GroupDiv, GroupL2} {
		if amps[g] != [2]complex128{} {
			t.Errorf("group %d should be silent, got %v", g, amps[g])
		}
	}
}

func TestSynthesizeBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r, err := NewRadiator(simpleTable(), RefDistance, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	alt := altFor(t, 1e6, 4e6)
	fs := 1 << 18
	x := coherentSum(t, r, alt, float64(fs), fs/4, Jitter{}, rng)
	if len(x) != fs/4 {
		t.Fatalf("got %d samples", len(x))
	}
	// Mean power should sit between the two phase powers.
	aA := cmplx.Abs(r.GroupAmplitude(alt.Rates[0], 0, GroupOffchip))
	aB := cmplx.Abs(r.GroupAmplitude(alt.Rates[1], 1, GroupOffchip))
	var p float64
	for _, v := range x {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(x))
	lo, hi := aA*aA, aB*aB
	if lo > hi {
		lo, hi = hi, lo
	}
	if p < lo || p > hi {
		t.Errorf("mean power %v outside [%v,%v]", p, lo, hi)
	}
}

// Both halves of synthesis — the phase amplitudes and the shared
// envelope pair — reject a bad sample rate, an empty capture, and an
// invalid alternation.
func TestSynthesizeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r, _ := NewRadiator(simpleTable(), RefDistance, 0, rng)
	alt := altFor(t, 1, 1)
	if _, err := r.PhaseAmplitudes(alt, 0); err == nil {
		t.Error("zero fs should fail the phase amplitudes")
	}
	if _, err := SynthesizeEnvelopes(alt, 0, 10, Jitter{}, rng, nil); err == nil {
		t.Error("zero fs should fail the envelopes")
	}
	if _, err := SynthesizeEnvelopes(alt, 1e6, 0, Jitter{}, rng, nil); err == nil {
		t.Error("zero n should fail")
	}
	bad := alt
	bad.HalfSeconds[1] = 0
	if _, err := r.PhaseAmplitudes(bad, 1e6); err == nil {
		t.Error("invalid alternation should fail the phase amplitudes")
	}
	if _, err := SynthesizeEnvelopes(bad, 1e6, 10, Jitter{}, rng, nil); err == nil {
		t.Error("invalid alternation should fail the envelopes")
	}
}

// The synthesized alternation must put its energy at the alternation
// frequency: correlate against the ideal tone and check most of the
// square-wave fundamental is recovered.
func TestSynthesizeSpectralLocation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r, err := NewRadiator(simpleTable(), RefDistance, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	alt := altFor(t, 0, 4e6)
	fs := float64(1 << 18)
	n := 1 << 16
	x := coherentSum(t, r, alt, fs, n, Jitter{}, rng)
	f0 := 1 / alt.Period()

	proj := func(f float64) float64 {
		var acc complex128
		for i, v := range x {
			ph := -2 * math.Pi * f * float64(i) / fs
			acc += v * cmplx.Exp(complex(0, ph))
		}
		return cmplx.Abs(acc) / float64(n)
	}
	at := proj(f0)
	off := proj(f0 * 1.37)
	if at < 10*off {
		t.Errorf("fundamental not localized: |X(f0)|=%v |X(1.37f0)|=%v", at, off)
	}
	// Fundamental amplitude of a ±Δ/2 square wave is (2/π)Δ; projection
	// returns half the tone amplitude.
	delta := cmplx.Abs(r.GroupAmplitude(alt.Rates[1], 1, GroupOffchip))
	want := delta / math.Pi
	if math.Abs(at-want) > 0.15*want {
		t.Errorf("fundamental projection = %v, want ≈ %v", at, want)
	}
}

// Jitter's FreqOffset shifts the alternation frequency down (longer loop
// periods) by the configured fraction.
func TestJitterFrequencyShift(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r, err := NewRadiator(simpleTable(), RefDistance, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	alt := altFor(t, 0, 4e6)
	fs := float64(1 << 18)
	n := 1 << 16
	jit := Jitter{FreqOffset: 0.01}
	x := coherentSum(t, r, alt, fs, n, jit, rng)
	f0 := 1 / alt.Period()
	proj := func(f float64) float64 {
		var acc complex128
		for i, v := range x {
			acc += v * cmplx.Exp(complex(0, -2*math.Pi*f*float64(i)/fs))
		}
		return cmplx.Abs(acc)
	}
	shifted := f0 / 1.01
	if proj(shifted) < 3*proj(f0) {
		t.Errorf("energy did not shift to %v Hz (|X(shifted)|=%v |X(f0)|=%v)",
			shifted, proj(shifted), proj(f0))
	}
}

func TestDefaultJitter(t *testing.T) {
	j := DefaultJitter()
	if j.FreqOffset <= 0 || j.DriftStd <= 0 || j.MaxDrift <= 0 {
		t.Errorf("DefaultJitter has non-positive fields: %+v", j)
	}
}
