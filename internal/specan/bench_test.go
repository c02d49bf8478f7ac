package specan

import (
	"math/rand"
	"testing"

	"repro/internal/emsim"
	"repro/internal/noise"
)

// BenchmarkProducts1s is the synthesis-and-Welch-products layer of one
// measurement cell at the paper's setting: a 1 s capture at 2^18
// samples/s read at 1 Hz RBW, so the envelope pair and the noise stream
// each stream through one 2^18-point Welch segment. Every iteration
// synthesizes fresh envelopes (emsim.EnvelopeStream) and noise
// (noise.Stream) from an advancing rng — the product-cache miss a
// campaign pays once per row and repetition — on a scratch warmed
// before the timer, exactly as campaign workers hold one. The products hold the 78–82 kHz band, the paper's 4 kHz display
// span around its 80 kHz alternation. points/op counts the FFT points
// transformed (segments × segment length, both products) and bins/op
// the product bins accumulated (segments × band bins, both products) —
// the deterministic work counts that separate "more work" from "slower
// work"; allocs/op must be 0.
func BenchmarkProducts1s(b *testing.B) {
	const fs = 1 << 18
	const n = fs // 1 s
	a, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s := NewScratch()
	var prod PairPSD
	var noisePSD []float64
	var env emsim.EnvelopeStream
	var nz noise.Stream
	rng := rand.New(rand.NewSource(1))
	timeline := emsim.CanonicalTimeline(80e3)
	lab := noise.Lab()
	band := Band{Lo: 78e3, Hi: 82e3}

	run := func() {
		if err := env.Init(timeline, fs, n, emsim.DefaultJitter(), rng); err != nil {
			b.Fatal(err)
		}
		if _, err := a.EnvelopeProductsStream(n, band, &env, fs, s, &prod); err != nil {
			b.Fatal(err)
		}
		if err := nz.Init(lab, fs, n, rng); err != nil {
			b.Fatal(err)
		}
		if noisePSD, err = a.NoiseProductsStream(n, band, &nz, fs, s, noisePSD); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm: size the ring and blocks, build the plan and window tables

	seg := s.welch.SegLen()
	segments := 1 + (n-seg)/(seg/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(2*segments*seg), "points/op")
	b.ReportMetric(float64(2*segments*len(noisePSD)), "bins/op")
}

// BenchmarkRender is the render layer of one fig9-fast-shaped cell: a
// 0.25 s capture at 2^18 samples/s, so 65,536-point segments whose
// envelope and noise products hold the 78–82 kHz band, folded with three groups' coefficients and read the way a
// SAVAT cell reads its trace — the band power within ±1 kHz of the
// 80 kHz alternation. bins/op counts the display bins computed, the
// deterministic work count; allocs/op must be 0.
func BenchmarkRender(b *testing.B) {
	const fs = 1 << 18
	const n = fs / 4
	a, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s := NewScratch()
	rng := rand.New(rand.NewSource(1))
	band := Band{Lo: 78e3, Hi: 82e3}
	var env emsim.EnvelopeStream
	if err := env.Init(emsim.CanonicalTimeline(80e3), fs, n, emsim.DefaultJitter(), rng); err != nil {
		b.Fatal(err)
	}
	prod, err := a.EnvelopeProductsStream(n, band, &env, fs, s, nil)
	if err != nil {
		b.Fatal(err)
	}
	var nz noise.Stream
	if err := nz.Init(noise.Lab(), fs, n, rng); err != nil {
		b.Fatal(err)
	}
	noisePSD, err := a.NoiseProductsStream(n, band, &nz, fs, s, nil)
	if err != nil {
		b.Fatal(err)
	}
	coeffs := [][2]complex128{{1e-6, 2e-6i}, {3e-7 + 1e-7i, -2e-7}, {5e-8, 5e-8}}

	bins := 0
	render := func() {
		tr, err := a.Render(n, band, coeffs, prod, noisePSD, fs, s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.BandPower(80e3, 1e3); err != nil {
			b.Fatal(err)
		}
		bins += tr.bins
	}
	render() // warm: size the display buffer
	bins = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render()
	}
	b.ReportMetric(float64(bins)/float64(b.N), "bins/op")
}
