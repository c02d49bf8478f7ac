package emsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/activity"
)

// richTable exercises several coherence groups at once.
func richTable() SourceTable {
	t := NewSourceTable()
	t[activity.ALU].Near = 2e-7
	t[activity.L1D].Near = 1e-7
	t[activity.Div].Near = 3e-7
	t[activity.L2].Near = 2.5e-7
	t[activity.Bus] = Source{Near: 1e-7, Far: 5e-8, Diffuse: 1e-8, Group: GroupOffchip}
	t[activity.DRAM] = Source{Near: 8e-8, Far: 6e-8, Diffuse: 2e-8, Group: GroupOffchip, Angle: 0.7}
	return t
}

func richAlt(test *testing.T) Alternation {
	test.Helper()
	var a Alternation
	a.Rates[0].Add(activity.ALU, 3e8)
	a.Rates[0].Add(activity.L1D, 1e8)
	a.Rates[0].Add(activity.Div, 2e7)
	a.Rates[1].Add(activity.ALU, 1e8)
	a.Rates[1].Add(activity.L2, 5e6)
	a.Rates[1].Add(activity.Bus, 5e6)
	a.Rates[1].Add(activity.DRAM, 2e6)
	a.HalfSeconds = [2]float64{6.25e-6, 6.25e-6}
	return a
}

// referenceGroups is the pre-factorization synthesis: one timeline walk
// accumulating every group's complex amplitude per sample directly.
// The group streams combined from SynthesizeEnvelopes and
// PhaseAmplitudes must reproduce it (up to reassociation rounding), and
// SynthesizeEnvelopes must consume the identical rng draws.
func referenceGroups(r *Radiator, alt Alternation, fs float64, n int, jit Jitter, rng *rand.Rand) [NumGroups][]complex128 {
	amps, err := r.PhaseAmplitudes(alt, fs)
	if err != nil {
		panic(err)
	}
	var out [NumGroups][]complex128
	active := 0
	for g := 0; g < NumGroups; g++ {
		if amps[g][0] != 0 || amps[g][1] != 0 {
			out[g] = make([]complex128, n)
			active++
		}
	}
	if active == 0 {
		return out
	}
	maxDrift := jit.MaxDrift
	if maxDrift == 0 {
		maxDrift = 10 * jit.DriftStd
	}
	rho := jit.AmpNoiseCorr
	if rho == 0 {
		rho = 0.99
	}
	ampStep := jit.AmpNoiseStd * math.Sqrt(1-rho*rho)
	dt := 1 / fs
	phase := 0
	walk := 0.0
	scale := 1 + jit.FreqOffset
	ampFluct := [2]float64{jit.AmpNoiseStd * rng.NormFloat64(), jit.AmpNoiseStd * rng.NormFloat64()}
	tEdge := rng.Float64() * alt.HalfSeconds[0] * scale
	advance := func() {
		phase ^= 1
		if phase == 0 {
			walk += rng.NormFloat64() * jit.DriftStd
			walk = math.Max(-maxDrift, math.Min(maxDrift, walk))
			scale = 1 + jit.FreqOffset + walk
			if jit.AmpNoiseStd > 0 {
				for p := 0; p < 2; p++ {
					ampFluct[p] = rho*ampFluct[p] + ampStep*rng.NormFloat64()
				}
			}
		}
		tEdge += alt.HalfSeconds[phase] * scale
	}
	t := 0.0
	for m := 0; m < n; m++ {
		end := t + dt
		var acc [NumGroups]complex128
		for t < end {
			segEnd := math.Min(end, tEdge)
			w := complex((segEnd-t)*(1+ampFluct[phase]), 0)
			for g := 0; g < NumGroups; g++ {
				if out[g] != nil {
					acc[g] += amps[g][phase] * w
				}
			}
			t = segEnd
			if t >= tEdge {
				advance()
			}
		}
		for g := 0; g < NumGroups; g++ {
			if out[g] != nil {
				out[g][m] = acc[g] * complex(fs, 0)
			}
		}
	}
	return out
}

// Every active group's stream is amps[g][0]·A + amps[g][1]·B over the
// one shared envelope pair — the combination both measurement pipelines
// rely on — and equals the direct per-group accumulation.
func TestEnvelopeCombinationMatchesDirectAccumulation(t *testing.T) {
	alt := richAlt(t)
	jit := DefaultJitter()
	jit.AmpNoiseStd = 0.15
	for _, seed := range []int64{1, 7, 42} {
		setup := rand.New(rand.NewSource(seed))
		r, err := NewRadiator(richTable(), 0.5, 2e-7, setup)
		if err != nil {
			t.Fatal(err)
		}
		fs := float64(1 << 18)
		n := 4096
		rngA := rand.New(rand.NewSource(seed + 100))
		rngB := rand.New(rand.NewSource(seed + 100))
		amps, err := r.PhaseAmplitudes(alt, fs)
		if err != nil {
			t.Fatal(err)
		}
		env, err := SynthesizeEnvelopes(alt, fs, n, jit, rngA, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceGroups(r, alt, fs, n, jit, rngB)
		for g := 0; g < NumGroups; g++ {
			if silent := amps[g] == [2]complex128{}; silent != (want[g] == nil) {
				t.Fatalf("seed %d group %d: silent %v, direct accumulation disagrees", seed, g, silent)
			}
			if want[g] == nil {
				continue
			}
			var peak float64
			for _, v := range want[g] {
				if a := cmplx.Abs(v); a > peak {
					peak = a
				}
			}
			for m := range want[g] {
				got := amps[g][0]*complex(env.A[m], 0) + amps[g][1]*complex(env.B[m], 0)
				if d := cmplx.Abs(got - want[g][m]); d > 1e-12*peak {
					t.Fatalf("seed %d group %d sample %d: %v vs %v (Δ %g)", seed, g, m, got, want[g][m], d)
				}
			}
		}
		// Identical draw streams: the two rngs must now agree.
		for i := 0; i < 8; i++ {
			if a, b := rngA.Float64(), rngB.Float64(); a != b {
				t.Fatalf("seed %d rng diverged at draw %d: %v vs %v", seed, i, a, b)
			}
		}
	}
}

func TestSynthesizeEnvelopesDstReuse(t *testing.T) {
	alt := richAlt(t)
	jit := DefaultJitter()
	jit.AmpNoiseStd = 0.1
	fs := float64(1 << 18)
	n := 1024

	fresh, err := SynthesizeEnvelopes(alt, fs, n, jit, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.A) != n || len(fresh.B) != n {
		t.Fatalf("envelope lengths %d/%d", len(fresh.A), len(fresh.B))
	}

	// Reused dst: same values, same backing arrays, identical results.
	dst := &Envelopes{A: make([]float64, 2*n), B: make([]float64, 4)}
	keepA := &dst.A[0]
	got, err := SynthesizeEnvelopes(alt, fs, n, jit, rand.New(rand.NewSource(5)), dst)
	if err != nil {
		t.Fatal(err)
	}
	if got != dst {
		t.Error("dst should be returned")
	}
	if &dst.A[0] != keepA {
		t.Error("sufficient-capacity buffer should be reused")
	}
	for m := 0; m < n; m++ {
		if got.A[m] != fresh.A[m] || got.B[m] != fresh.B[m] {
			t.Fatalf("sample %d differs after dst reuse", m)
		}
	}

	// Envelope weights are occupancy fractions: with no amplitude noise
	// they sum to ≈1 per sample.
	quiet, err := SynthesizeEnvelopes(alt, fs, n, Jitter{}, rand.New(rand.NewSource(6)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < n; m++ {
		if s := quiet.A[m] + quiet.B[m]; math.Abs(s-1) > 1e-9 {
			t.Fatalf("sample %d occupancy %v, want 1", m, s)
		}
	}
}

func TestSynthesizeEnvelopesErrors(t *testing.T) {
	alt := richAlt(t)
	rng := rand.New(rand.NewSource(8))
	if _, err := SynthesizeEnvelopes(alt, 0, 10, Jitter{}, rng, nil); err == nil {
		t.Error("zero fs should fail")
	}
	if _, err := SynthesizeEnvelopes(alt, 1e6, 0, Jitter{}, rng, nil); err == nil {
		t.Error("zero n should fail")
	}
	bad := alt
	bad.HalfSeconds[0] = 0
	if _, err := SynthesizeEnvelopes(bad, 1e6, 10, Jitter{}, rng, nil); err == nil {
		t.Error("invalid alternation should fail")
	}
}

// InitLaw over a used radiator reproduces NewRadiatorLaw bit for bit
// under either law, and a failed InitLaw leaves the radiator and the rng
// untouched.
func TestRadiatorInitMatchesNewRadiator(t *testing.T) {
	table := richTable()
	for _, law := range []DistanceLaw{LawNearFar, LawFlat} {
		a, err := NewRadiatorLaw(table, 0.5, 1e-7, law, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		reused := &Radiator{}
		// Prime with different state first, under the other law;
		// InitLaw must fully overwrite it.
		other := LawFlat
		if law == LawFlat {
			other = LawNearFar
		}
		if err := reused.InitLaw(simpleTable(), RefDistance, 0, other, rand.New(rand.NewSource(99))); err != nil {
			t.Fatal(err)
		}
		if err := reused.InitLaw(table, 0.5, 1e-7, law, rand.New(rand.NewSource(21))); err != nil {
			t.Fatal(err)
		}
		if *a != *reused {
			t.Errorf("law %d: InitLaw should reproduce NewRadiatorLaw exactly", law)
		}

		// Errors leave the rng unconsumed and the radiator unchanged.
		rng := rand.New(rand.NewSource(55))
		saved := *reused
		if err := reused.InitLaw(table, -1, 0, law, rng); err == nil {
			t.Error("negative distance should fail")
		}
		if err := reused.InitLaw(table, 0.5, -1, law, rng); err == nil {
			t.Error("negative asymmetry should fail")
		}
		if err := reused.InitLaw(table, 0.5, 0, DistanceLaw(99), rng); err == nil {
			t.Error("unknown distance law should fail")
		}
		if *reused != saved {
			t.Errorf("law %d: failed InitLaw should leave the radiator unchanged", law)
		}
		fresh := rand.New(rand.NewSource(55))
		if rng.Float64() != fresh.Float64() {
			t.Errorf("law %d: failed InitLaw should not consume rng draws", law)
		}
	}
}

func TestPhaseAmplitudesErrors(t *testing.T) {
	r, err := NewRadiator(richTable(), 0.5, 0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	alt := richAlt(t)
	if _, err := r.PhaseAmplitudes(alt, 0); err == nil {
		t.Error("zero fs should fail")
	}
	bad := alt
	bad.HalfSeconds[0] = -1
	if _, err := r.PhaseAmplitudes(bad, 1e6); err == nil {
		t.Error("invalid alternation should fail")
	}
}

// Draining an EnvelopeStream in blocks of any size must reproduce the
// one-block SynthesizeEnvelopes bit for bit — with drift and amplitude
// fluctuation on, so the edge walk, the drift walk, and the AR(1)
// state all have to carry across Next calls — and leave the rng where
// the one-block render leaves it.
func TestEnvelopeStreamChunkInvariant(t *testing.T) {
	alt := richAlt(t)
	jit := DefaultJitter()
	jit.AmpNoiseStd = 0.1
	const fs, seg, n = 1 << 18, 4096, 3*4096 + 1234
	wantRng := rand.New(rand.NewSource(11))
	want, err := SynthesizeEnvelopes(alt, fs, n, jit, wantRng, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNext := wantRng.Int63()
	for _, chunk := range []int{1, 7, 999, seg, n} {
		rng := rand.New(rand.NewSource(11))
		s, err := NewEnvelopeStream(alt, fs, n, jit, rng)
		if err != nil {
			t.Fatal(err)
		}
		a, b := make([]float64, n), make([]float64, n)
		for off := 0; off < n; {
			k, err := s.Next(a[off:min(off+chunk, n)], b[off:min(off+chunk, n)])
			if err != nil || k == 0 {
				t.Fatalf("chunk %d: Next at %d = %d, %v", chunk, off, k, err)
			}
			off += k
		}
		if k, _ := s.Next(a, b); k != 0 {
			t.Errorf("chunk %d: drained stream produced %d more samples", chunk, k)
		}
		for m := range a {
			if a[m] != want.A[m] || b[m] != want.B[m] {
				t.Fatalf("chunk %d: sample %d = (%v, %v), one block gives (%v, %v)",
					chunk, m, a[m], b[m], want.A[m], want.B[m])
			}
		}
		if rng.Int63() != wantNext {
			t.Errorf("chunk %d: rng left at a different draw than the one-block render", chunk)
		}
	}
}
