package specan

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// renderStreams builds the complex group streams a fast-path call
// describes with (envA, envB, coeffs), the way the slow path would.
func renderStreams(envA, envB []float64, coeffs [][2]complex128) [][]complex128 {
	out := make([][]complex128, len(coeffs))
	for g, c := range coeffs {
		x := make([]complex128, len(envA))
		for i := range x {
			x[i] = c[0]*complex(envA[i], 0) + c[1]*complex(envB[i], 0)
		}
		out[g] = x
	}
	return out
}

func randomEnvelopes(rng *rand.Rand, n int) (a, b []float64) {
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		// Occupancy-like envelopes: complementary with some wander.
		f := 0.5 + 0.4*math.Sin(2*math.Pi*float64(i)/37.3) + 0.05*rng.NormFloat64()
		a[i] = f
		b[i] = 1 - f
	}
	return a, b
}

func TestAnalyzeEnvelopesMatchesIncoherent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 1 << 12
	fs := 1e5
	envA, envB := randomEnvelopes(rng, n)
	coeffs := [][2]complex128{
		{complex(1e-6, 0), complex(3e-7, 1e-7)},
		{complex(0, 2e-7), complex(5e-7, -2e-7)},
		{complex(4e-7, 4e-7), 0},
	}
	noise := make([]complex128, n)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-7
	}
	// A floor low enough not to clip, so the PSDs compare directly.
	a := MustNew(Config{RBW: 30, Window: dsp.Hann, FloorPSD: 1e-40})

	streams := renderStreams(envA, envB, coeffs)
	streams = append(streams, noise)
	want, err := a.AnalyzeIncoherent(streams, fs)
	if err != nil {
		t.Fatal(err)
	}

	scratch := NewScratch()
	for pass := 0; pass < 2; pass++ { // second pass: warmed scratch, same result
		got, err := a.AnalyzeEnvelopes(envA, envB, coeffs, noise, fs, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if got.ActualRBW != want.ActualRBW {
			t.Fatalf("pass %d ActualRBW %g, want %g", pass, got.ActualRBW, want.ActualRBW)
		}
		if got.Spectrum().Bins() != want.Spectrum().Bins() {
			t.Fatalf("pass %d bins %d, want %d", pass, got.Spectrum().Bins(), want.Spectrum().Bins())
		}
		var peak float64
		for _, v := range want.Spectrum().PSD {
			if v > peak {
				peak = v
			}
		}
		for k := range want.Spectrum().PSD {
			if d := math.Abs(got.Spectrum().PSD[k] - want.Spectrum().PSD[k]); d > 1e-12*peak {
				t.Fatalf("pass %d bin %d: %g, want %g (Δ %g)", pass, k, got.Spectrum().PSD[k], want.Spectrum().PSD[k], d)
			}
		}
	}

	// Nil scratch allocates a private one and must agree too.
	got, err := a.AnalyzeEnvelopes(envA, envB, coeffs, noise, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Spectrum().PSD {
		if d := math.Abs(got.Spectrum().PSD[k] - want.Spectrum().PSD[k]); d > 1e-12*want.Spectrum().PSD[k]+1e-60 {
			t.Fatalf("nil-scratch bin %d: %g, want %g", k, got.Spectrum().PSD[k], want.Spectrum().PSD[k])
		}
	}
}

// Without coefficients the call degenerates to a plain incoherent
// analysis of the extra stream; without anything it must report
// ErrNoCaptures, as AnalyzeIncoherent now does.
func TestAnalyzeEnvelopesNoiseOnlyAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n = 1 << 10
	fs := 1e5
	a := MustNew(Config{RBW: 100, Window: dsp.Hann, FloorPSD: 1e-40})
	noise := make([]complex128, n)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want, err := a.AnalyzeIncoherent([][]complex128{noise}, fs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.AnalyzeEnvelopes(nil, nil, nil, noise, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Spectrum().PSD {
		if got.Spectrum().PSD[k] != want.Spectrum().PSD[k] {
			t.Fatalf("noise-only bin %d: %g, want %g", k, got.Spectrum().PSD[k], want.Spectrum().PSD[k])
		}
	}

	if _, err := a.AnalyzeEnvelopes(nil, nil, nil, nil, fs, nil); !errors.Is(err, ErrNoCaptures) {
		t.Errorf("all-nil should return ErrNoCaptures, got %v", err)
	}
	if _, err := a.AnalyzeIncoherent([][]complex128{nil, nil}, fs); !errors.Is(err, ErrNoCaptures) {
		t.Errorf("all-nil incoherent should return ErrNoCaptures, got %v", err)
	}
	if _, err := a.AnalyzeEnvelopes(nil, nil, nil, noise, 0, nil); err == nil {
		t.Error("zero sample rate should fail")
	}
	env := make([]float64, n)
	if _, err := a.AnalyzeEnvelopes(env, env[:8], [][2]complex128{{1, 1}}, nil, fs, nil); err == nil {
		t.Error("envelope length mismatch should fail")
	}
	if _, err := a.AnalyzeEnvelopes(env, env, [][2]complex128{{1, 1}}, noise[:8], fs, nil); err == nil {
		t.Error("extra length mismatch should fail")
	}
	if _, err := a.AnalyzeEnvelopes(env[:1], env[:1], [][2]complex128{{1, 1}}, nil, fs, nil); err == nil {
		t.Error("one-sample capture should fail")
	}
}
