package specan

import (
	"math/rand"
	"testing"

	"repro/internal/workpool"
)

// slicePairSource yields two in-memory real streams in fixed-size
// blocks. An awkward block size that divides neither the segment nor
// the half-overlap exercises the partial-block fill loop.
type slicePairSource struct {
	a, b  []float64
	block int
}

func (s *slicePairSource) Next(a, b []float64) (int, error) {
	k := len(a)
	if k > s.block {
		k = s.block
	}
	if k > len(s.a) {
		k = len(s.a)
	}
	copy(a[:k], s.a[:k])
	copy(b[:k], s.b[:k])
	s.a, s.b = s.a[k:], s.b[k:]
	return k, nil
}

// sliceSampleSource is the complex single-stream analogue.
type sliceSampleSource struct {
	x     []complex128
	block int
}

func (s *sliceSampleSource) Next(dst []complex128) (int, error) {
	k := len(dst)
	if k > s.block {
		k = s.block
	}
	if k > len(s.x) {
		k = len(s.x)
	}
	copy(dst[:k], s.x[:k])
	s.x = s.x[k:]
	return k, nil
}

// streamFixture builds a random envelope pair, group coefficients, and
// a complex noise capture, sized so the analyzer picks a segment much
// shorter than the capture (seg 4096 for n = 1<<15 at RBW 100).
func streamFixture(t *testing.T, n int) (a *Analyzer, envA, envB []float64, coeffs [][2]complex128, noise []complex128, fs float64) {
	t.Helper()
	fs = 262144
	cfg := DefaultConfig()
	cfg.RBW = 100
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	envA = make([]float64, n)
	envB = make([]float64, n)
	noise = make([]complex128, n)
	for i := 0; i < n; i++ {
		envA[i] = rng.NormFloat64()
		envB[i] = rng.NormFloat64()
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for g := 0; g < 3; g++ {
		coeffs = append(coeffs, [2]complex128{
			complex(rng.NormFloat64(), rng.NormFloat64()),
			complex(rng.NormFloat64(), rng.NormFloat64()),
		})
	}
	return a, envA, envB, coeffs, noise, fs
}

// TestStreamMatchesBuffered drives the segment-fused streaming analysis
// and the buffered analysis over the same data and demands bit-exact
// agreement bin by bin, across block sizes that misalign with the
// segmentation, with and without the noise stream, and with the
// envelope family absent.
func TestStreamMatchesBuffered(t *testing.T) {
	const n = 1 << 15
	a, envA, envB, coeffs, noise, fs := streamFixture(t, n)

	want, err := a.AnalyzeEnvelopes(envA, envB, coeffs, noise, fs, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, block := range []int{1 << 20, 4096, 999, 1} {
		if block == 1 && testing.Short() {
			continue // one-sample blocks are slow; full runs only
		}
		got, err := a.AnalyzeEnvelopesStream(n,
			&slicePairSource{a: envA, b: envB, block: block}, coeffs,
			&sliceSampleSource{x: noise, block: block}, fs, nil)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		requireSamePSD(t, want, got, "block size %d", block)
	}

	// No noise stream.
	want, err = a.AnalyzeEnvelopes(envA, envB, coeffs, nil, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.AnalyzeEnvelopesStream(n,
		&slicePairSource{a: envA, b: envB, block: 777}, coeffs, nil, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePSD(t, want, got, "no noise")

	// No envelope family (noise only).
	want, err = a.AnalyzeEnvelopes(nil, nil, nil, noise, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = a.AnalyzeEnvelopesStream(n, nil, nil,
		&sliceSampleSource{x: noise, block: 777}, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePSD(t, want, got, "noise only")
}

// TestStreamPoolInvariance checks the determinism argument of the
// parallel segment fan-out: per-segment transforms may run on any pool
// shape, but the fixed reduction order keeps the result bit-identical
// to the inline (capacity-0) execution.
func TestStreamPoolInvariance(t *testing.T) {
	const n = 1 << 15
	a, envA, envB, coeffs, noise, fs := streamFixture(t, n)
	inline, err := a.AnalyzeEnvelopesStream(n,
		&slicePairSource{a: envA, b: envB, block: 999}, coeffs,
		&sliceSampleSource{x: noise, block: 999}, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, 3, 16} {
		s := NewScratch()
		s.Pool = workpool.New(cap)
		got, err := a.AnalyzeEnvelopesStream(n,
			&slicePairSource{a: envA, b: envB, block: 999}, coeffs,
			&sliceSampleSource{x: noise, block: 999}, fs, s)
		if err != nil {
			t.Fatalf("pool cap %d: %v", cap, err)
		}
		requireSamePSD(t, inline, got, "pool cap %d", cap)
	}
}

func requireSamePSD(t *testing.T, want, got *Trace, format string, args ...any) {
	t.Helper()
	prefix := "streaming analysis"
	if format != "" {
		prefix += " (" + format + ")"
	}
	if len(want.Spectrum().PSD) != len(got.Spectrum().PSD) {
		t.Fatalf(prefix+": %d bins, want %d", append(args, len(got.Spectrum().PSD), len(want.Spectrum().PSD))...)
	}
	for i := range want.Spectrum().PSD {
		if want.Spectrum().PSD[i] != got.Spectrum().PSD[i] {
			t.Fatalf(prefix+": bin %d: %g, want %g (exact)",
				append(args, i, got.Spectrum().PSD[i], want.Spectrum().PSD[i])...)
		}
	}
	if want.ActualRBW != got.ActualRBW || want.FloorPSD != got.FloorPSD {
		t.Fatalf(prefix+": RBW/floor %g/%g, want %g/%g",
			append(args, got.ActualRBW, got.FloorPSD, want.ActualRBW, want.FloorPSD)...)
	}
}

// TestStreamFootprint checks the tentpole's memory claim at the
// analyzer layer: after a streaming analysis of an n-sample capture
// with segment length seg ≪ n, every buffer the scratch retains is
// O(seg) — the capture itself was never materialized.
func TestStreamFootprint(t *testing.T) {
	const n = 1 << 18
	a, envA, envB, coeffs, noise, fs := streamFixture(t, n)
	s := NewScratch()
	if _, err := a.AnalyzeEnvelopesStream(n,
		&slicePairSource{a: envA, b: envB, block: 4096}, coeffs,
		&sliceSampleSource{x: noise, block: 4096}, fs, s); err != nil {
		t.Fatal(err)
	}
	seg := s.welch.SegLen()
	if seg >= n/4 {
		t.Fatalf("fixture broken: segment %d not ≪ capture %d", seg, n)
	}
	for _, b := range []struct {
		name string
		cap  int
	}{
		{"wa", cap(s.wa)}, {"wb", cap(s.wb)}, {"wn", cap(s.wn)},
		{"pa", cap(s.prod.PA)}, {"pb", cap(s.prod.PB)}, {"cross", cap(s.prod.Cross)},
		{"noisePSD", cap(s.noisePSD)}, {"sum", cap(s.sum)},
	} {
		if b.cap > seg {
			t.Errorf("scratch buffer %s holds %d samples; want ≤ segment %d", b.name, b.cap, seg)
		}
	}
}
