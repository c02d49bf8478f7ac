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

// The product path — EnvelopeProductsStream + NoiseProductsStream +
// Render, as the measurement fast path runs it — must agree with
// AnalyzeIncoherent over the rendered group streams and the noise
// capture up to rounding: by Welch linearity the per-bin group-sum PSD
// is CA·|WA|² + CB·|WB|² + 2·Re(CX·WA·conj(WB)).
func TestStreamProductsMatchIncoherent(t *testing.T) {
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
	band := Band{Lo: fs / 8, Hi: fs / 4}
	var warmed *Trace
	for pass := 0; pass < 2; pass++ { // second pass: warmed scratch, same result
		got, err := analyzeSlices(a, band, envA, envB, coeffs, noise, fs, scratch)
		if err != nil {
			t.Fatal(err)
		}
		requireNearPSD(t, want, got, "pass %d", pass)
		warmed = got
	}

	// Nil scratch allocates a private one and gives the same bits.
	got, err := analyzeSlices(a, band, envA, envB, coeffs, noise, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePSD(t, warmed, got, "nil scratch")
}

// Without coefficients the product path degenerates to a plain
// incoherent analysis of the noise stream; without anything Render
// reports ErrNoCaptures, as AnalyzeIncoherent does. Bad capture shapes
// fail in the stream functions.
func TestStreamProductsNoiseOnlyAndErrors(t *testing.T) {
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
	band := Band{Lo: 0, Hi: fs / 2}
	got, err := analyzeSlices(a, band, nil, nil, nil, noise, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, gb := want.Band(), got.Band()
	if gb.Offset != 0 || len(gb.PSD) != gb.N/2+1 {
		t.Fatalf("band [0, fs/2] holds bins %d+%d of %d, want every non-negative bin", gb.Offset, len(gb.PSD), gb.N)
	}
	for k := range gb.PSD {
		if gb.PSD[k] != wb.PSD[k] {
			t.Fatalf("noise-only bin %d: %g, want %g", k, gb.PSD[k], wb.PSD[k])
		}
	}

	if _, err := a.Render(n, band, nil, nil, nil, fs, nil); !errors.Is(err, ErrNoCaptures) {
		t.Errorf("no coefficients and no noise should return ErrNoCaptures, got %v", err)
	}
	if _, err := a.AnalyzeIncoherent([][]complex128{nil, nil}, fs); !errors.Is(err, ErrNoCaptures) {
		t.Errorf("all-nil incoherent should return ErrNoCaptures, got %v", err)
	}
	if _, err := a.NoiseProductsStream(n, band, &sliceSampleSource{x: noise, block: n}, 0, nil, nil); err == nil {
		t.Error("zero sample rate should fail")
	}
	if _, err := a.Render(n, band, nil, nil, make([]float64, 8), 0, nil); err == nil {
		t.Error("zero sample rate should fail in Render")
	}
	env := make([]float64, n)
	if _, err := a.EnvelopeProductsStream(n, band, &slicePairSource{a: env[:8], b: env[:8], block: n}, fs, nil, nil); err == nil {
		t.Error("envelope stream shorter than the capture should fail")
	}
	if _, err := a.NoiseProductsStream(n, band, &sliceSampleSource{x: noise[:8], block: n}, fs, nil, nil); err == nil {
		t.Error("noise stream shorter than the capture should fail")
	}
	if _, err := a.EnvelopeProductsStream(1, band, &slicePairSource{a: env[:1], b: env[:1], block: 1}, fs, nil, nil); err == nil {
		t.Error("one-sample capture should fail")
	}
	if _, err := a.EnvelopeProductsStream(n, band, nil, fs, nil, nil); err == nil {
		t.Error("nil envelope source should fail")
	}
	short, err := a.NoiseProductsStream(n/2, band, &sliceSampleSource{x: noise[:n/2], block: n}, fs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != n/4+1 {
		// The fixture relies on the whole capture being one segment.
		t.Fatalf("fixture broken: %d-bin noise PSD for a %d-sample capture", len(short), n/2)
	}
	if _, err := a.Render(n, band, nil, nil, short, fs, nil); err == nil {
		t.Error("noise PSD at another capture's segment length should fail")
	}
	if _, err := a.Render(n, Band{Lo: 0, Hi: fs / 4}, nil, nil, got.Band().PSD, fs, nil); err == nil {
		t.Error("noise PSD of another band should fail")
	}
	if _, err := a.Render(n, band, [][2]complex128{{1, 1}}, nil, nil, fs, nil); err == nil {
		t.Error("coefficients without envelope products should fail")
	}
	for _, bad := range []Band{{Lo: -1, Hi: 10}, {Lo: 10, Hi: 5}, {Lo: 0, Hi: fs/2 + 1}, {Lo: math.NaN(), Hi: 10}} {
		if _, err := a.NoiseProductsStream(n, bad, &sliceSampleSource{x: noise, block: n}, fs, nil, nil); err == nil {
			t.Errorf("band %v should fail", bad)
		}
		if _, err := a.Render(n, bad, nil, nil, short, fs, nil); err == nil {
			t.Errorf("Render of band %v should fail", bad)
		}
	}
}
