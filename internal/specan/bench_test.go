package specan

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/emsim"
	"repro/internal/noise"
)

// BenchmarkProducts1s is the synthesis-and-Welch-products layer of one
// measurement cell at the paper's setting: a 1 s capture at 2^18
// samples/s read at 1 Hz RBW, so the envelope pair and the noise stream
// each stream through one 2^18-point Welch segment. Every iteration
// synthesizes fresh envelopes (emsim.EnvelopeStream) and noise
// (noise.Stream) from an advancing rng — the product-cache miss a
// campaign pays once per row and repetition — on an arena-backed
// scratch warmed before the timer, exactly as campaign workers hold
// one. points/op counts the FFT points transformed (segments ×
// segment length, both products), the deterministic work count that
// separates "more work" from "slower work"; allocs/op must be 0.
func BenchmarkProducts1s(b *testing.B) {
	const fs = 1 << 18
	const n = fs // 1 s
	a, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s := NewScratch()
	s.Mem = arena.New()
	var prod PairPSD
	var noisePSD []float64
	var env emsim.EnvelopeStream
	var nz noise.Stream
	rng := rand.New(rand.NewSource(1))
	timeline := emsim.CanonicalTimeline(80e3)
	lab := noise.Lab()

	run := func() {
		if err := env.Init(timeline, fs, n, emsim.DefaultJitter(), rng); err != nil {
			b.Fatal(err)
		}
		if _, err := a.EnvelopeProductsStream(n, &env, fs, s, &prod); err != nil {
			b.Fatal(err)
		}
		if err := nz.Init(lab, fs, n, rng); err != nil {
			b.Fatal(err)
		}
		if noisePSD, err = a.NoiseProductsStream(n, &nz, fs, s, noisePSD); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm: carve the arena, build the plan and window tables

	seg := len(noisePSD)
	segments := 1 + (n-seg)/(seg/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(2*segments*seg), "points/op")
}
